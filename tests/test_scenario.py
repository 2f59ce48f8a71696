import json

import pytest

from conftest import make_scenario, shipped
from metrotwin.errors import ParseError, TwinError, ValidationError
from metrotwin.scenario import (build_world, load_scenario, run_scenario,
                                scenario_from_dict)
from metrotwin.simkernel import SECOND


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


def test_round_trip_is_stable():
    sc = scenario_from_dict(make_scenario(experiment="latency",
                                          **latency_extra()))
    again = load_scenario(sc.serialize())
    assert again.raw == sc.raw
    assert again.serialize() == sc.serialize()


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
    assert w1.topo is not w2.topo
    w1.stack.teardown(w1.record)
    assert w2.record.status.value == "Active"  # untouched by w1's teardown


def test_failed_deployment_surfaces_reason():
    doc = make_scenario()
    doc["service"]["vnfs"][0]["vcpu"] = 10_000
    sc = scenario_from_dict(doc)
    with pytest.raises(TwinError) as err:
        build_world(sc, (0,))
    assert "Failed" in str(err.value)


def test_setup_report_layout():
    doc = make_scenario()
    doc["service"]["repetitions"] = 3
    report = run_scenario(scenario_from_dict(doc))
    setup = report.results["setup"]
    assert setup["repetitions"] == 3
    assert [r["repetition"] for r in setup["per_repetition"]] == [0, 1, 2]
    assert setup["per_repetition"][0]["kpi_e2e_s"] == "177.000"
    assert setup["summary"]["kpi_e2e"]["std_s"] == "0.000"


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
