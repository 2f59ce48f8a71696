import json
import re

import pytest

from conftest import make_scenario
from metrotwin.cli import main
from metrotwin.scenario import run_scenario, scenario_from_dict


def write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def latency_doc(**over):
    doc = make_scenario(experiment="latency", latency={
        "measured_link": "r1-r2",
        "cases": [{"length_km": 0.0021}, {"length_km": 6.8}],
    })
    doc.update(over)
    return doc


def softfail_doc():
    return make_scenario(experiment="softfail", softfail={
        "repetitions": 2,
        "noise_sigma_db": 0.0,
        "emit_trace": False,
        "cases": [{"name": "drift", "rate_db_per_s": 0.25}],
    })


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", "--scenario", write(tmp_path, latency_doc())]) == 0
    out = capsys.readouterr().out
    assert "scenario OK" in out and "experiment=latency" in out


def test_parse_error_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "--scenario", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1" in err


def test_unknown_key_exits_1_unless_lenient(tmp_path, capsys):
    doc = latency_doc()
    doc["latency"]["mystery"] = True
    path = write(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert "mystery" in capsys.readouterr().err
    assert main(["validate", "--scenario", path, "--lenient"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err and "mystery" in captured.err


def test_runtime_failure_exits_2(tmp_path, capsys):
    doc = make_scenario()
    doc["service"]["vnfs"][0]["vcpu"] = 10_000
    assert main(["setup", "--scenario", write(tmp_path, doc)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_json_format_is_canonical(tmp_path, capsys):
    doc = latency_doc()
    code = main(["latency", "--scenario", write(tmp_path, doc),
                 "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    expected = run_scenario(scenario_from_dict(latency_doc())).to_canonical_json()
    assert out == expected


def test_csv_latency_header(tmp_path, capsys):
    main(["latency", "--scenario", write(tmp_path, latency_doc()),
          "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "link_length_km,measured_us,estimated_us,delta_us"
    assert lines[1].split(",")[0] == "0.0021"


def test_softfail_table_labels(tmp_path, capsys):
    main(["softfail", "--scenario", write(tmp_path, softfail_doc())])
    out = capsys.readouterr().out
    for label in ("Detection time (min)", "Anticipation time (min)",
                  "Mean detection SNR (dB)", "Mean detection BER"):
        assert label in out
    assert "Case 1" in out


def test_setup_table_has_kpi_rows(tmp_path, capsys):
    doc = make_scenario()
    doc["service"]["repetitions"] = 2
    main(["setup", "--scenario", write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "kpi_e2e" in out and "177.000" in out


def test_out_redirects_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    main(["latency", "--scenario", write(tmp_path, latency_doc()),
          "--format", "json", "--out", str(target)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(target) in captured.err
    assert json.loads(target.read_text())["experiment"] == "latency"


def test_trace_appends_kernel_events(tmp_path, capsys):
    trace = tmp_path / "events.log"
    doc = make_scenario()
    main(["setup", "--scenario", write(tmp_path, doc), "--repeat", "1",
          "--trace", str(trace)])
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert lines, "trace file should not be empty"
    for line in lines:
        fire_at, sequence, kind = line.split(",", 2)
        int(fire_at), int(sequence)
        assert kind
    # append mode: a second run doubles the file
    main(["setup", "--scenario", write(tmp_path, doc), "--repeat", "1",
          "--trace", str(trace)])
    capsys.readouterr()
    assert len(trace.read_text().splitlines()) == 2 * len(lines)


def test_repeat_and_seed_overrides(tmp_path, capsys):
    doc = make_scenario()
    main(["setup", "--scenario", write(tmp_path, doc), "--repeat", "3",
          "--seed", "99", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99
    assert report["results"]["setup"]["repetitions"] == 3


def test_rate_override_rebuilds_cases(tmp_path, capsys):
    main(["softfail", "--scenario", write(tmp_path, softfail_doc()),
          "--rate", "0.1", "--rate", "0.4", "--format", "json"])
    cases = json.loads(capsys.readouterr().out)["results"]["softfail"]["cases"]
    assert [c["rate_db_per_s"] for c in cases] == ["0.1000", "0.4000"]
    assert [c["name"] for c in cases] == ["case1", "case2"]


def test_subcommand_overrides_experiment(tmp_path, capsys):
    # a latency scenario run through `setup` needs a service section only
    doc = latency_doc()
    code = main(["setup", "--scenario", write(tmp_path, doc),
                 "--repeat", "1", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "setup_kpi"
    assert "latency" not in report["results"]


def test_demo_prefixes_sections(tmp_path, capsys):
    doc = make_scenario(experiment="full_demo", latency={
        "measured_link": "r1-r2",
        "cases": [{"length_km": 6.8}],
    }, softfail={
        "repetitions": 1,
        "noise_sigma_db": 0.0,
        "emit_trace": False,
        "cases": [{"rate_db_per_s": 0.25}],
    })
    doc["service"]["repetitions"] = 1
    main(["demo", "--scenario", write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "# setup\n" in out and "# latency\n" in out and "# softfail\n" in out


def test_repeat_must_be_positive(tmp_path, capsys):
    assert main(["setup", "--scenario", write(tmp_path, make_scenario()),
                 "--repeat", "0"]) == 1
    assert "--repeat" in capsys.readouterr().err


def test_nonpositive_rate_exits_1_naming_key(tmp_path, capsys):
    assert main(["softfail", "--scenario", write(tmp_path, softfail_doc()),
                 "--rate", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rate_db_per_s" in err


def test_zero_repetitions_exits_1_naming_key(tmp_path, capsys):
    doc = softfail_doc()
    doc["softfail"]["repetitions"] = 0
    assert main(["softfail", "--scenario", write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "softfail.repetitions" in err


def test_repeat_reaches_every_experiment(tmp_path, capsys):
    doc = make_scenario(experiment="full_demo", latency={
        "measured_link": "r1-r2",
        "cases": [{"length_km": 6.8}],
    }, softfail={
        "noise_sigma_db": 0.0,
        "emit_trace": False,
        "cases": [{"rate_db_per_s": 0.25}],
    })
    assert main(["demo", "--scenario", write(tmp_path, doc), "--repeat", "2",
                 "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [results[k]["repetitions"] for k in ("setup", "latency", "softfail")] \
        == [2, 2, 2]


@pytest.mark.parametrize("mutate,key", [
    (lambda d: d["topology"]["links"][0].update(base_attenuation_db=1.0),
     "base_attenuation_db"),
    (lambda d: d["topology"]["switches"][0].update(per_pass_latency_ns=645),
     "per_pass_latency_ns"),
    (lambda d: d["service"].update(monitoring={"telemetry_period_s": 1.0}),
     "monitoring"),
    (lambda d: d["service"]["connectivity"].update(bandwidth_gbps=100),
     "bandwidth_gbps"),
], ids=["link", "switch", "monitoring", "connectivity"])
def test_removed_scenario_keys_are_unknown(tmp_path, capsys, mutate, key):
    doc = make_scenario()
    mutate(doc)
    path = write(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert key in capsys.readouterr().err
    assert main(["validate", "--scenario", path, "--lenient"]) == 0
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("detector", "consecutive_required", 0),
    ("detector", "consecutive_required", -1),
    ("detector", "regression_window", 0),
    ("detector", "regression_window", 1),
    ("detector", "baseline_window", 0),
    ("detector", "sample_period_s", 0),
    ("detector", "sample_period_s", 1e300),
    ("signal", "fail_ber_above", 0),
    ("signal", "fail_ber_above", -0.1),
    ("signal", "fail_ber_above", 0.6),
    (None, "noise_sigma_db", -0.1),
    ("cases", "snr_coupling", 2.0),
])
def test_bad_softfail_value_exits_1_naming_key(tmp_path, capsys, section,
                                               key, value):
    doc = softfail_doc()
    node = doc["softfail"]
    if section == "cases":
        node = node["cases"][0]
    elif section is not None:
        node = node.setdefault(section, {})
    node[key] = value
    assert main(["softfail", "--scenario", write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def demo_doc():
    return make_scenario(experiment="full_demo", latency={
        "measured_link": "r1-r2",
        "cases": [{"length_km": 6.8}],
    }, softfail={
        "repetitions": 1,
        "cases": [{"rate_db_per_s": 0.25, "link": "r1-r2"}],
    })


def set_key(doc, path, value):
    """Set ``doc`` at a key path like ``service.vnfs[0].vcpu``."""
    *parents, last = re.findall(r"\w+|\[\d+\]", path)
    node = doc
    for token in parents:
        node = (node[int(token[1:-1])] if token.startswith("[")
                else node.setdefault(token, {}))
    node[last] = value


@pytest.mark.parametrize("path,value,named", [
    ("service.vnfs[0].vcpu", "abc", None),
    ("topology.links[0].length_m", "x", None),
    ("topology.links[0].group_index", "x", None),
    ("service.phase_durations.retune_s", "x", None),
    ("service.phase_durations.retune_s", -5, None),
    ("latency.probe.jitter_sigma_ns", "x", None),
    ("service.connectivity.max_rt_latency_us", "x", None),
    ("topology.channel_grid_size", "x", None),
    ("topology.channel_grid_size", 0, None),
    ("softfail.signal", 5, None),
    ("softfail.detector", 5, None),
    ("softfail.cases", [5], None),
    ("latency.probe", 5, None),
    ("service.phase_durations", 5, None),
    ("topology.links", 5, None),
    ("service.vnfs", 5, None),
    ("service.connectivity.endpoints", "tp1", None),
    ("latency.cases[0].legacy_residual_delay_ns", "x", None),
    ("topology.transponders[0].warmup_duration_ns", -1, None),
    ("latency.attribution", {"components": ["probe"], "matrix": "x"},
     "latency.attribution.matrix"),
    ("softfail.cases[0].link", "nope", None),
    ("service.vnfs", [{"name": "solo", "compute": "edge1"}], "service:"),
    ("service.jitter", "false", None),
    ("softfail.emit_trace", "no", None),
    ("service.vnfs[0].name", 5, None),
    ("service.vnfs[0].instantiation_cv", -1, None),
    ("topology.roadms", ["roadm1", "roadm2"], "topology:"),
    ("latency.measured_link", "nope", None),
    # demo_doc has one clean latency case, so one matrix row
    ("latency.attribution", {"components": ["a"], "matrix": [[1], [1]]},
     "latency.attribution.matrix"),
    ("latency.attribution", {"components": ["a", "b"], "matrix": [[1]]},
     "latency.attribution.matrix"),
    ("latency.attribution", {"components": ["a", "b"], "matrix": [[1, 0]]},
     "latency.attribution.matrix"),
    ("latency.attribution", {"components": ["a"], "matrix": [[0]]},
     "latency.attribution.matrix"),
    # puts tp2 on roadm1 next to tp1, so the endpoints share a ROADM
    ("topology.transponders[1].roadm", "roadm1",
     "service.connectivity.endpoints"),
])
def test_bad_document_fails_validation_naming_key(tmp_path, capsys, path,
                                                  value, named):
    doc = demo_doc()
    set_key(doc, path, value)
    scenario = write(tmp_path, doc)
    for command in ("validate", "demo"):
        assert main([command, "--scenario", scenario]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and (named or path) in err


@pytest.mark.parametrize("length_km", ["abc", -1.0])
def test_bad_length_km_exits_1_naming_key(tmp_path, capsys, length_km):
    doc = latency_doc()
    doc["latency"]["cases"][1]["length_km"] = length_km
    assert main(["latency", "--scenario", write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "latency.cases[1].length_km" in err


def test_unreachable_fail_threshold_exits_1(tmp_path, capsys):
    # 0.45 puts the fail threshold below the LOS floor, where the clamped
    # SNR of a noiseless ramp never reaches it
    doc = softfail_doc()
    doc["softfail"]["signal"] = {"fail_ber_above": 0.45}
    assert main(["softfail", "--scenario", write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "softfail.signal" in err \
        and "LOS floor" in err
