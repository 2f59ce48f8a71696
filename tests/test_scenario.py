import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, shipped
from metrotwin import scenario, simkernel
from metrotwin.cli import main
from metrotwin.controlplane import (REQUEST_ID, STACK_STREAM,
                                    TRANSPONDER_STREAM, VNF_STREAM, DeployPlan,
                                    hash_label)
from metrotwin.errors import ParseError, TwinError, ValidationError
from metrotwin.scenario import (KpiRows, RunReport, TraceRows, build_world,
                                load_scenario, run_scenario,
                                scenario_from_dict)
from metrotwin.simkernel import SECOND, KeyTable
from metrotwin.topology import build_ring


def latency_extra():
    return {"latency": {
        "measured_link": "r1-r2",
        "cases": [{"length_km": 0.0021}, {"length_km": 79.9695}],
    }}


def softfail_extra():
    return {"softfail": {
        "repetitions": 2,
        "noise_sigma_db": 0.0,
        "emit_trace": False,
        "cases": [{"rate_db_per_s": 0.25}],
    }}


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(make_scenario()))
    sc = load_scenario(p)
    assert sc.experiment == "setup_kpi" and sc.seed == 7
    assert sc.warnings == []


def test_parse_error_carries_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"experiment": "latency",\n  "seed": ,}')
    with pytest.raises(ParseError) as err:
        load_scenario(p)
    assert "line 2" in str(err.value)


def test_missing_keys_are_named():
    doc = make_scenario()
    del doc["service"]["connectivity"]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "connectivity" in str(err.value)


def test_unknown_key_strict_vs_lenient():
    doc = make_scenario()
    doc["service"]["typo_key"] = 1
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "typo_key" in str(err.value)
    sc = scenario_from_dict(doc, lenient=True)
    assert any("typo_key" in w for w in sc.warnings)


def test_experiment_sections_required():
    with pytest.raises(ValidationError):
        scenario_from_dict(make_scenario(experiment="latency"))
    with pytest.raises(ValidationError):
        scenario_from_dict(make_scenario(experiment="full_demo",
                                         **latency_extra()))


def test_bad_seed_rejected():
    with pytest.raises(ValidationError):
        scenario_from_dict(make_scenario(seed=-1))
    with pytest.raises(ValidationError):
        scenario_from_dict(make_scenario(seed="seven"))


def test_build_world_reproducible_per_spawn_key():
    doc = make_scenario()
    doc["service"]["jitter"] = True
    sc = scenario_from_dict(doc)
    a = build_world(sc, (4,)).record.timestamps.t_vnfs_ready
    b = build_world(sc, (4,)).record.timestamps.t_vnfs_ready
    c = build_world(sc, (5,)).record.timestamps.t_vnfs_ready
    assert a == b
    assert a != c
    # a latency run overrides the measured link's length in its worlds only
    sc = scenario_from_dict(make_scenario(experiment="latency",
                                          **latency_extra()))
    before = json.dumps(sc.raw)
    run_scenario(sc)
    assert json.dumps(sc.raw) == before


def test_worlds_are_isolated():
    sc = scenario_from_dict(make_scenario())
    w1 = build_world(sc, (0,))
    w2 = build_world(sc, (0,))
    assert w1.stack.state is not w2.stack.state
    assert w1.stack.ring is w2.stack.ring is sc.plans[0].ring  # shared, read-only
    w1.stack.handle_degradation_alert(w1.record, w1.kernel.now)
    assert w1.record.status.value == "Degraded"
    assert w2.record.status.value == "Active"  # untouched by w1's alert
    w1.kernel.run_to_end()
    assert w1.record.status.value == "Restored"
    # w1's ROADMs carry its spare arc; w2's still carry its first one
    assert w1.record.path != w2.record.path
    assert w1.stack.state.roadms != w2.stack.state.roadms
    assert w2.stack.verify_invariants() == w1.stack.verify_invariants() == []


@pytest.mark.parametrize("name", sorted(
    p.name for p in SCENARIO_DIR.glob("*.json")))
def test_every_world_keeps_the_invariants_and_the_shared_ring(monkeypatch,
                                                              name):
    # every world a run at --repeat 3 builds, the setup worlds and the
    # worlds of each latency and soft-failure case, as its runner left it
    doc = shipped(name)
    for section in ("service", "latency", "softfail"):
        if section in doc:
            doc[section]["repetitions"] = 3
    sc = scenario_from_dict(doc)
    worlds = []

    def collect(*args, **kwargs):
        worlds.append(build_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(scenario, "build_world", collect)
    run_scenario(sc)
    runs = {"setup_kpi": ["service"], "full_demo": ["service", "latency",
                                                    "softfail"]}.get(
        sc.experiment, [sc.experiment])
    assert len(worlds) == sum(3 * len(doc[run].get("cases", [None]))
                              for run in runs)
    for world in worlds:
        assert world.stack.verify_invariants() == []
    assert sc.plans[0].ring == build_ring(doc["topology"])


def test_validation_builds_every_plan_a_run_deploys(monkeypatch):
    # one DeployPlan per ring the service deploys on, the scenario's then
    # each latency case's, built when the scenario is validated; neither
    # a run nor a world built alone builds another
    built = []
    init = DeployPlan.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DeployPlan, "__init__", counting_init)
    sc = load_scenario(SCENARIO_DIR / "paper_full_demo.json")
    assert len(built) == 1 + 4 and list(sc.plans) == built
    assert sc.plans[0].ring == build_ring(sc.raw["topology"])
    link = sc.raw["latency"]["measured_link"]
    for i, case in enumerate(sc.latency.cases):
        assert sc.plans[1 + i].ring.links[link] is case
    run_scenario(sc)
    build_world(sc, (0,))
    assert len(built) == 5


def test_failed_deployment_surfaces_reason():
    sc = scenario_from_dict(make_scenario())
    # set after validation, which rejects a requirement below the probe's
    # noiseless round trip, so the probe verification fails at deploy
    ns = sc.plans[0].ns
    ns.connectivity = ns.connectivity._replace(max_rt_latency_ns=1)
    with pytest.raises(TwinError) as err:
        build_world(sc, (0,), where="setup repetition 0: ")
    assert str(err.value) == ("setup repetition 0: deployment ended Failed: "
                              "probe verification exceeded latency "
                              "requirement")


def test_setup_report_layout():
    doc = make_scenario()
    doc["service"]["repetitions"] = 3
    report = run_scenario(scenario_from_dict(doc))
    setup = report.results["setup"]
    assert setup["repetitions"] == 3
    assert [r["repetition"] for r in setup["per_repetition"]] == [0, 1, 2]
    assert setup["per_repetition"][0]["kpi_e2e_s"] == "177.000"
    assert setup["summary"]["kpi_e2e"]["std_s"] == "0.000"


def test_report_rows_read_a_slice_as_a_list():
    # each lazy row sequence of a report raised TypeError on a slice before
    doc = make_scenario(experiment="full_demo", **latency_extra(),
                        **softfail_extra())
    doc["service"]["repetitions"] = 3
    doc["softfail"]["emit_trace"] = True
    results = run_scenario(scenario_from_dict(doc)).results
    for rows in (results["setup"]["per_repetition"],
                 results["softfail"]["cases"][0]["trace"],
                 results["softfail"]["cases"][0]["trace"].values):
        assert rows[0:2] == [rows[0], rows[1]]
        assert rows[::-1] == list(rows)[::-1] and rows[5:5] == []


def test_a_setup_world_built_alone_gives_its_report_row(tmp_path):
    # a world's deployment draws are its own streams', whether its runner's
    # table draws them for 40 worlds or a table of its own for it alone
    path = SCENARIO_DIR / "paper_setup.json"
    out = tmp_path / "report.json"
    assert main(["setup", "--scenario", str(path), "--repeat", "40",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["setup"]["per_repetition"]
    sc = load_scenario(path)
    assert sc.raw["service"]["jitter"] and len(rows) == 40
    for k, row in enumerate(rows):
        world = build_world(sc, (k,))
        kpis = world.stack.compute_kpis(world.record)
        assert row == {"repetition": k, **{
            f"{name[:-3]}_s": f"{ns / SECOND:.3f}"
            for name, ns in zip(kpis._fields, kpis)}}


def test_a_world_reads_its_deployment_row_once(monkeypatch, tmp_path):
    # each setup world reads its row of the plan's deployment streams once;
    # the first read keys the plan's paths for all 40 roots in one pass and
    # draws every one of them, two VNF and two transponder streams a root,
    # so no later read keys or draws
    events = []
    draws, philox_keys = KeyTable.draws, simkernel.philox_keys
    take_turn = KeyTable.take_turn

    def counting_draws(self, root, *args):
        events.append(("read", root))
        return draws(self, root, *args)

    def counting_philox_keys(words):
        events.append(("keys", len(words)))
        return philox_keys(words)

    def counting_take_turn(self, key):
        events.append("turn")
        return take_turn(self, key)

    monkeypatch.setattr(KeyTable, "draws", counting_draws)
    monkeypatch.setattr(simkernel, "philox_keys", counting_philox_keys)
    monkeypatch.setattr(KeyTable, "take_turn", counting_take_turn)
    assert main(["setup", "--scenario", str(SCENARIO_DIR / "paper_setup.json"),
                 "--repeat", "40", "--format", "json",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert events == [("read", (0,)), ("keys", 40 * 4)] + ["turn"] * 40 * 4 \
        + [("read", (rep,)) for rep in range(1, 40)]


# The setup experiment's closed form, from the document and the spawn-path
# constants alone.  What paper_setup.json leaves unset takes the twin's
# documented defaults: each control-plane phase lasts 2 s, and a transponder
# configures in 2 s and warms up in 125 s, each jittered with a cv of 0.02.
PHASE_NS, TP_DURATIONS_NS, TP_CV = 2 * SECOND, (2 * SECOND, 125 * SECOND), 0.02


def setup_oracle(doc: dict) -> list[dict]:
    """Each world's setup row: its four KPIs, each a sum of the slower VNF's
    instantiation, the control messaging, one config step per ring ROADM,
    the slower transponder's configuration plus warm-up, and the probe
    verification.  Every duration is drawn straight from numpy, one stream
    per VNF and per transponder."""
    service = (STACK_STREAM, hash_label(REQUEST_ID))

    def drawn(root, leaf, means_s, cv):
        stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            doc["seed"], spawn_key=root + service + leaf)))
        sigma2 = math.log1p(cv * cv)
        return [round(stream.lognormal(math.log(mean) - sigma2 / 2.0,
                                       math.sqrt(sigma2)) * SECOND)
                for mean in means_s]

    rows = []
    for rep in range(doc["service"]["repetitions"]):
        vnfs = max(drawn((rep,), (VNF_STREAM, i),
                         [vnf["instantiation_mean_s"]],
                         vnf["instantiation_cv"])[0]
                   for i, vnf in enumerate(doc["service"]["vnfs"]))
        transponders = max(sum(drawn((rep,), (TRANSPONDER_STREAM, i),
                                     [d / SECOND for d in TP_DURATIONS_NS],
                                     TP_CV))
                           for i in range(2))  # source, then destination
        roadms = len(doc["topology"]["roadms"]) * PHASE_NS
        connectivity = PHASE_NS + roadms + transponders
        e2e = vnfs + connectivity + PHASE_NS
        rows.append({"repetition": rep, **{
            key: f"{ns / SECOND:.3f}" for key, ns in (
                ("kpi_ns_deploy_s", vnfs),
                ("kpi_connectivity_s", connectivity), ("kpi_e2e_s", e2e),
                ("e2e_excl_transponder_s", e2e - transponders))}})
    return rows


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       reps=st.integers(min_value=1, max_value=300))
@example(seed=1, reps=500)
@example(seed=2, reps=500)
@example(seed=90017, reps=500)
@example(seed=123456789, reps=500)
def test_setup_rows_equal_an_independent_oracle(seed, reps):
    # every jittered setup row of the shipped scenario, however the key
    # table orders its draws, equals the closed form drawn stream by stream
    doc = shipped("paper_setup.json")
    assert doc["service"]["jitter"]
    doc["seed"], doc["service"]["repetitions"] = seed, reps
    report = run_scenario(scenario_from_dict(doc))
    assert list(report.results["setup"]["per_repetition"]) == \
        setup_oracle(doc)


def test_latency_report_values():
    doc = make_scenario(experiment="latency", **latency_extra())
    report = run_scenario(scenario_from_dict(doc))
    cases = report.results["latency"]["cases"]
    assert cases[0]["estimated_us"] == "0.021"
    assert cases[0]["measured_us"] == "15.251"
    assert cases[1]["delta_us"] == "15.230"
    budget = report.results["latency"]["budget"]
    assert budget["components_us"]["optical_path_devices"] == "13.100"
    assert budget["residual_rms_us"] == "0.000"


def test_softfail_report_values():
    doc = make_scenario(experiment="softfail", **softfail_extra())
    report = run_scenario(scenario_from_dict(doc))
    case = report.results["softfail"]["cases"][0]
    assert case["detection_time_s"] == "5.000"
    assert case["anticipation_s"] == "48.000"
    assert case["restored"] == 2 and case["failed"] == 0
    assert "trace" not in case  # emit_trace off


def test_canonical_json_is_sorted_and_stable():
    doc = make_scenario()
    doc["service"]["repetitions"] = 2
    sc = scenario_from_dict(doc)
    text = run_scenario(sc).to_canonical_json()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert parsed["artifact_version"] == 1
    assert parsed["scenario"] == sc.raw  # full echo of the input


# user text: non-ASCII, lone surrogates, control characters, quotes and
# backslashes among any other code point
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\b\t\n\ud800\udfff\u2028é€😀')
                | st.characters(exclude_categories=()), max_size=8)
_FLOATS = st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]) \
    | st.floats()
# a setup world's KPIs in seconds: 0, exact .3f rounding ties and floats next
# to one, and values near the 1e18 ns bound, among any others in range
_KPIS = st.sampled_from([0.0, 0.0625, 2.5625, 0.0005, 1.0005, 999999999.9995,
                         (10 ** 18 - 1) / SECOND, 10 ** 18 / SECOND]) \
    | st.floats(min_value=0.0, max_value=1e9)
_LEAVES = (_TEXT | _FLOATS | st.integers() | st.integers(-2**200, 2**200)
           | st.booleans() | st.none()
           | st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), max_size=3)
           .map(TraceRows)
           | st.lists(st.tuples(_KPIS, _KPIS, _KPIS, _KPIS), max_size=3)
           .map(KpiRows))
_TREES = st.recursive(_LEAVES, lambda children:
                      st.lists(children, max_size=4)
                      | st.dictionaries(_TEXT, children, max_size=4),
                      max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(experiment=_TEXT, seed=st.integers(), scenario=_TREES, results=_TREES)
def test_canonical_writer_matches_json_dumps(experiment, seed, scenario,
                                             results):
    report = RunReport(experiment, seed, scenario, results)
    # a trace's rows are written as the lists of text they read as, and a
    # setup table's as the dicts
    assert report.to_canonical_json() == json.dumps(
        report.to_dict(), sort_keys=True, indent=2, default=list) + "\n"


@pytest.mark.parametrize("kpis", [
    [], [(0.0, 0.0, 0.0, 0.0)], [(0.0625, 2.5625, 0.0005, 1.0005)] * 2,
    [(999999999.9995, (10 ** 18 - 1) / SECOND, 10 ** 18 / SECOND, 1e9)]],
    ids=["empty", "zero", "ties", "bound"])
def test_setup_table_renders_as_its_rows(kpis):
    # each row reads as the dict the report holds, and the table renders
    # as json.dumps renders those dicts
    rows = KpiRows(kpis)
    assert list(rows) == [{"repetition": rep, **{
        key: format(x, ".3f") for key, x in zip(
            ("kpi_ns_deploy_s", "kpi_connectivity_s", "kpi_e2e_s",
             "e2e_excl_transponder_s"), row)}} for rep, row in enumerate(kpis)]
    report = RunReport("setup_kpi", 1, {}, {"setup": {"per_repetition": rows}})
    assert report.to_canonical_json() == json.dumps(
        report.to_dict(), sort_keys=True, indent=2, default=list) + "\n"


def test_same_seed_same_bytes_jittered():
    doc = make_scenario(seed=13)
    doc["service"]["jitter"] = True
    doc["service"]["repetitions"] = 4
    a = run_scenario(scenario_from_dict(json.loads(json.dumps(doc))))
    b = run_scenario(scenario_from_dict(json.loads(json.dumps(doc))))
    assert a.to_canonical_json() == b.to_canonical_json()


def test_seed_changes_jittered_results_only():
    jittered = make_scenario(seed=1)
    jittered["service"]["jitter"] = True
    jittered["service"]["repetitions"] = 3
    other = json.loads(json.dumps(jittered))
    other["seed"] = 2
    r1 = run_scenario(scenario_from_dict(jittered)).results
    r2 = run_scenario(scenario_from_dict(other)).results
    assert r1 != r2

    calm = make_scenario(seed=1, experiment="latency", **latency_extra())
    calm2 = json.loads(json.dumps(calm))
    calm2["seed"] = 99
    assert run_scenario(scenario_from_dict(calm)).results == \
           run_scenario(scenario_from_dict(calm2)).results


def test_shipped_scenarios_validate():
    for name in ("paper_table2.json", "paper_setup.json",
                 "paper_softfail.json", "paper_full_demo.json"):
        sc = scenario_from_dict(shipped(name))
        assert sc.warnings == []
