import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, shipped
from metrotwin import scenario
from metrotwin.cli import main
from metrotwin.controlplane import DeployPlan
from metrotwin.errors import ParseError, TwinError, ValidationError
from metrotwin.scenario import (RunReport, TraceRows, build_world,
                                load_scenario, run_scenario,
                                scenario_from_dict)
from metrotwin.simkernel import SECOND
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
    assert w1.stack.ring is w2.stack.ring is sc.ring  # shared, read-only
    w1.stack.handle_degradation_alert(w1.record, w1.kernel.now())
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
    assert sc.ring == build_ring(doc["topology"])


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
    assert sc.plans[0].ring is sc.ring
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
    ns = sc.service.descriptor
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


def test_a_setup_world_built_alone_gives_its_report_row(tmp_path):
    # a world's deployment draws are its own streams', whether its runner's
    # table draws them for 40 worlds or a table of its own for it alone
    path = SCENARIO_DIR / "paper_setup.json"
    out = tmp_path / "report.json"
    assert main(["setup", "--scenario", str(path), "--repeat", "40",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["setup"]["per_repetition"]
    sc = load_scenario(path)
    assert sc.service.jitter and len(rows) == 40
    for k, row in enumerate(rows):
        world = build_world(sc, (k,))
        kpis = world.stack.compute_kpis(world.record)
        assert row == {"repetition": k, **{
            f"{name[:-3]}_s": f"{ns / SECOND:.3f}"
            for name, ns in zip(kpis._fields, kpis)}}


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
_LEAVES = (_TEXT | _FLOATS | st.integers() | st.integers(-2**200, 2**200)
           | st.booleans() | st.none()
           | st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), max_size=3)
           .map(TraceRows))
_TREES = st.recursive(_LEAVES, lambda children:
                      st.lists(children, max_size=4)
                      | st.dictionaries(_TEXT, children, max_size=4),
                      max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(experiment=_TEXT, seed=st.integers(), scenario=_TREES, results=_TREES)
def test_canonical_writer_matches_json_dumps(experiment, seed, scenario,
                                             results):
    report = RunReport(experiment, seed, scenario, results)
    # a trace's rows are written as the lists of text they read as
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
