import contextlib
import csv
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_scenario, shipped
from metrotwin import cli
from metrotwin.cli import main
from metrotwin.controlplane import (PROBE_STREAM, REQUEST_ID, STACK_STREAM,
                                    hash_label)
from metrotwin.mda import NOISE_STREAM
from metrotwin.optics import OpticalPlant
from metrotwin.scenario import (LATENCY_PROBE_STREAM, RunReport, run_scenario,
                                scenario_from_dict)
from metrotwin.simkernel import SimRng


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
    # 20 dB of noise meets the fail criterion during the baseline window,
    # so the episode ends without a detection; the error names the case
    doc = softfail_doc()
    doc["softfail"]["noise_sigma_db"] = 20
    path = write(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 0
    assert main(["softfail", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith(
        "runtime error: softfail.cases[0] (drift): repetition 0: episode "
        "ended without detection")


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


def parsed_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


# any text; the csv module's reader before Python 3.11 rejects any NUL
CASE_NAMES = st.text(st.characters(
    blacklist_characters="\x00" if sys.version_info < (3, 11) else ""))


@settings(max_examples=200, deadline=None)
@given(names=st.lists(CASE_NAMES, min_size=1, max_size=3))
def test_csv_parses_back_into_the_report_cells(names):
    cells = {key: f"{key}-cell" for key in (
        "rate_db_per_s", "detection_time_s", "anticipation_s",
        "predicted_anticipation_s", "mean_detection_snr_db",
        "mean_detection_ber")}
    results = {"cases": [dict(cells, name=name, restored=1, failed=0)
                         for name in names]}
    report = RunReport("softfail", 1, {}, {"softfail": results})
    assert parsed_csv(cli.render_report(report, "csv")) == [
        ["name", *cells, "restored", "failed"]] + [
        [name, *cells.values(), "1", "0"] for name in names]


def test_csv_keeps_a_case_name_with_a_comma_quote_and_newline(tmp_path,
                                                              capsys):
    doc = softfail_doc()
    name = 'ramp, "slow"\nx'
    doc["softfail"]["cases"][0]["name"] = name
    assert main(["softfail", "--scenario", write(tmp_path, doc),
                 "--format", "csv"]) == 0
    rows = parsed_csv(capsys.readouterr().out)
    assert len(rows) == 2 and len(rows[1]) == len(rows[0])
    assert rows[1][0] == name


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


def test_out_writes_canonical_traced_softfail(tmp_path, capsys):
    doc = softfail_doc()
    doc["softfail"]["emit_trace"] = True
    target = tmp_path / "report.json"
    assert main(["softfail", "--scenario", write(tmp_path, doc),
                 "--format", "json", "--out", str(target)]) == 0
    report = run_scenario(scenario_from_dict(doc))
    expected = report.to_canonical_json()
    assert target.read_text() == expected
    # the report's trace reads as the rows of text it is written as
    trace = report.results["softfail"]["cases"][0]["trace"]
    assert trace and trace == \
        json.loads(expected)["results"]["softfail"]["cases"][0]["trace"]


@pytest.mark.parametrize("target, reason", [
    ("missing/report.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_exits_1_naming_it(tmp_path, capsys, target, reason):
    out = str(tmp_path / target)
    assert main(["latency", "--scenario", write(tmp_path, latency_doc()),
                 "--format", "json", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out: cannot write {out}: {reason}\n"


def test_unwritable_trace_exits_1_before_any_world_runs(tmp_path, capsys,
                                                        monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda *a, **kw: runs.append(a))
    trace = str(tmp_path / "missing" / "events.log")
    assert main(["setup", "--scenario", write(tmp_path, make_scenario()),
                 "--trace", trace]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --trace: cannot write {trace}: "
                            f"No such file or directory\n")
    assert runs == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
def test_trace_on_a_full_device_exits_1_naming_it(tmp_path, capsys):
    # the open succeeds; the flush that closes the file fails
    assert main(["setup", "--scenario", write(tmp_path, make_scenario()),
                 "--repeat", "1", "--trace", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --trace: cannot write /dev/full: "
                            "No space left on device\n")


def test_trace_write_failing_mid_run_exits_1_naming_it(tmp_path, capsys,
                                                       monkeypatch):
    class FailingFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "open", lambda path, mode: FailingFile(),
                        raising=False)
    assert main(["setup", "--scenario", write(tmp_path, make_scenario()),
                 "--repeat", "1", "--trace", "events.log"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --trace: cannot write events.log: "
                            f"{os.strerror(errno.EIO)}\n")


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


@pytest.mark.parametrize("command, name", [("setup", "paper_setup.json"),
                                           ("latency", "paper_table2.json")])
def test_rate_on_a_command_without_soft_failure_exits_1(capsys, command,
                                                        name):
    # exit 0 before; the setup report also echoed a softfail section that
    # it never ran
    assert main([command, "--scenario", str(SCENARIO_DIR / name),
                 "--rate", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --rate")


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
    (lambda d: d["topology"].update(channel_grid_size=96),
     "channel_grid_size"),
], ids=["link", "switch", "monitoring", "connectivity", "grid"])
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
    pytest.param("service.vnfs[0].vcpu", "abc", None,
                 id="service.vnfs[0].vcpu-abc-None"),
    pytest.param("topology.links[0].length_m", "x", None,
                 id="topology.links[0].length_m-x-None"),
    pytest.param("topology.links[0].group_index", "x", None,
                 id="topology.links[0].group_index-x-None"),
    pytest.param("service.phase_durations.retune_s", "x", None,
                 id="service.phase_durations.retune_s-x-None"),
    pytest.param("service.phase_durations.retune_s", -5, None,
                 id="service.phase_durations.retune_s--5-None"),
    pytest.param("latency.probe.jitter_sigma_ns", "x", None,
                 id="latency.probe.jitter_sigma_ns-x-None"),
    pytest.param("service.connectivity.max_rt_latency_us", "x", None,
                 id="service.connectivity.max_rt_latency_us-x-None"),
    pytest.param("topology.channel_grid_size", "x", None,
                 id="topology.channel_grid_size-x-None"),
    pytest.param("topology.channel_grid_size", 0, None,
                 id="topology.channel_grid_size-0-None"),
    pytest.param("softfail.signal", 5, None, id="softfail.signal-5-None"),
    pytest.param("softfail.detector", 5, None, id="softfail.detector-5-None"),
    pytest.param("softfail.cases", [5], None,
                 id="softfail.cases-value11-None"),
    pytest.param("latency.probe", 5, None, id="latency.probe-5-None"),
    pytest.param("service.phase_durations", 5, None,
                 id="service.phase_durations-5-None"),
    pytest.param("topology.links", 5, None, id="topology.links-5-None"),
    pytest.param("service.vnfs", 5, None, id="service.vnfs-5-None"),
    pytest.param("service.connectivity.endpoints", "tp1", None,
                 id="service.connectivity.endpoints-tp1-None"),
    pytest.param("latency.cases[0].legacy_residual_delay_ns", "x", None,
                 id="latency.cases[0].legacy_residual_delay_ns-x-None"),
    pytest.param("topology.transponders[0].warmup_duration_ns", -1, None,
                 id="topology.transponders[0].warmup_duration_ns--1-None"),
    pytest.param("latency.attribution",
                 {"components": ["probe"], "matrix": "x"},
                 "latency.attribution.matrix",
                 id="latency.attribution-value19-latency.attribution.matrix"),
    pytest.param("softfail.cases[0].link", "nope", None,
                 id="softfail.cases[0].link-nope-None"),
    pytest.param("service.vnfs", [{"name": "solo", "compute": "edge1"}],
                 "service.vnfs", id="service.vnfs-value21-service.vnfs"),
    pytest.param("service.jitter", "false", None,
                 id="service.jitter-false-None"),
    pytest.param("softfail.emit_trace", "no", None,
                 id="softfail.emit_trace-no-None"),
    pytest.param("service.vnfs[0].name", 5, None,
                 id="service.vnfs[0].name-5-None"),
    pytest.param("service.vnfs[0].instantiation_cv", -1, None,
                 id="service.vnfs[0].instantiation_cv--1-None"),
    pytest.param("topology.roadms", ["roadm1", "roadm2"], "topology:",
                 id="topology.roadms-value26-topology:"),
    pytest.param("latency.measured_link", "nope", None,
                 id="latency.measured_link-nope-None"),
    # demo_doc has one clean latency case, so one matrix row
    pytest.param("latency.attribution",
                 {"components": ["a"], "matrix": [[1], [1]]},
                 "latency.attribution.matrix",
                 id="latency.attribution-value28-latency.attribution.matrix"),
    pytest.param("latency.attribution",
                 {"components": ["a", "b"], "matrix": [[1]]},
                 "latency.attribution.matrix",
                 id="latency.attribution-value29-latency.attribution.matrix"),
    pytest.param("latency.attribution",
                 {"components": ["a", "b"], "matrix": [[1, 0]]},
                 "latency.attribution.matrix",
                 id="latency.attribution-value30-latency.attribution.matrix"),
    pytest.param("latency.attribution", {"components": ["a"], "matrix": [[0]]},
                 "latency.attribution.matrix",
                 id="latency.attribution-value31-latency.attribution.matrix"),
    # puts tp2 on roadm1 next to tp1, so the endpoints share a ROADM
    pytest.param("topology.transponders[1].roadm", "roadm1",
                 "service.connectivity.endpoints",
                 id="topology.transponders[1].roadm-roadm1-"
                    "service.connectivity.endpoints"),
    # its nanoseconds overflow the clock: exit 2 with an OverflowError before
    pytest.param("service.vnfs[0].instantiation_mean_s", 1e300, None,
                 id="service.vnfs[0].instantiation_mean_s-1e+300-None"),
    # an episode horizon of about 2.6e301 samples: ran over 5 minutes before
    pytest.param("softfail.cases[0].rate_db_per_s", 1e-300, None,
                 id="softfail.cases[0].rate_db_per_s-1e-300-None"),
    # 1,060 samples 1e9 s apart pass the 64-bit clock: exit 2 before
    pytest.param("softfail.detector.sample_period_s", 1e9,
                 "softfail.cases[0].rate_db_per_s",
                 id="softfail.detector.sample_period_s-1000000000.0-"
                    "softfail.cases[0].rate_db_per_s"),
    # exit 2 before: "telemetry stream ran past the 64-bit clock"
    pytest.param("topology.transponders[0].warmup_duration_ns", 10**30, None,
                 id="topology.transponders[0].warmup_duration_ns-"
                    f"{10**30}-None"),
    # edge1 has 16 vCPUs: exit 2 with "deployment ended Failed" before
    pytest.param("service.vnfs[0].vcpu", 10**6, None,
                 id="service.vnfs[0].vcpu-1000000-None"),
    # the ramp takes the whole span in one sample period: exit 2 after
    # numpy's overflow warning before
    pytest.param("softfail.cases[0].rate_db_per_s", 1e300, None,
                 id="softfail.cases[0].rate_db_per_s-1e+300-None"),
    # below the probe's noiseless estimate: exit 2 with "probe verification
    # exceeded latency requirement" before
    pytest.param("service.connectivity.max_rt_latency_us", 0, None,
                 id="service.connectivity.max_rt_latency_us-0-None"),
    # the ramp reaches the fail SNR at its 2nd sample, before 3 samples can
    # fall below the level: exit 2 with "episode ended without detection
    # and crossing" before
    pytest.param("softfail.cases[0].rate_db_per_s", 8.0, None,
                 id="softfail.cases[0].rate_db_per_s-8.0-None"),
    pytest.param("softfail.detector.consecutive_required", 10**6,
                 "consecutive_required",
                 id="softfail.detector.consecutive_required-1000000-"
                    "consecutive_required"),
    # r2-r3 is off the monitored r1-r2: exit 2 with "telemetry stream ran
    # past its expected horizon" before
    pytest.param("softfail.cases[0].link", "r2-r3", None,
                 id="softfail.cases[0].link-r2-r3-None"),
    # the detector fired on the third sample after the baseline, whatever
    # the ramp, before
    pytest.param("softfail.detector.drop_threshold_db", -5, None,
                 id="softfail.detector.drop_threshold_db--5-None"),
    pytest.param("softfail.cases[0].drop_threshold_db", 0, None,
                 id="softfail.cases[0].drop_threshold_db-0-None"),
    # exit 2 with an OverflowError from the probe's round trip before
    pytest.param("latency.cases[0].length_km", 1e307, None,
                 id="latency.cases[0].length_km-1e+307-None"),
    pytest.param("topology.links[0].length_m", 1e308, None,
                 id="topology.links[0].length_m-1e+308-None"),
    # log1p(cv**2) is infinite: with service.jitter on, exit 2 with a NaN
    # ValueError before
    pytest.param("service.vnfs[0].instantiation_cv", 1e300, None,
                 id="service.vnfs[0].instantiation_cv-1e+300-None"),
    # exit 0 before, with no case measured: a latency budget fitted to no
    # measurement, and a soft-failure section with nothing in it
    pytest.param("latency.cases", [], None, id="latency.cases-value48-None"),
    pytest.param("softfail.cases", [], None, id="softfail.cases-value49-None"),
    # named only "service" before
    pytest.param("service.vnfs", [], None, id="service.vnfs-value50-None"),
    pytest.param("service.connectivity.endpoints", ["tp1", "tp1"], None,
                 id="service.connectivity.endpoints-value51-None"),
    # its nanoseconds overflow: exit 2 with an OverflowError traceback before
    pytest.param("service.connectivity.max_rt_latency_us", 1e306, None,
                 id="service.connectivity.max_rt_latency_us-1e+306-None"),
    # 4 + 13 vCPUs on edge1's 16: reported at the last VNF on the node
    pytest.param("service.vnfs",
                 [{"name": "a", "vcpu": 4, "compute": "edge1"},
                  {"name": "b", "vcpu": 13, "compute": "edge1"}],
                 "service.vnfs[1].vcpu: the VNFs on edge1 ask for 17 in all; "
                 "it has 16",
                 id="service.vnfs-value53-service.vnfs[1].vcpu: the VNFs on "
                    "edge1 ask for 17 in all; it has 16"),
    # a float of the round trip overflows: validate passed and a run exited
    # 2 with an OverflowError before, or validate died with a traceback
    *(pytest.param(path, 10**320, None, id=f"{path}-10**320") for path in (
        "topology.links[0].legacy_residual_delay_ns",
        "latency.cases[0].legacy_residual_delay_ns",
        "latency.probe.probe_overhead_ns", "latency.probe.switch_overhead_ns",
        "latency.probe.optical_device_overhead_ns",
        "latency.probe.jitter_sigma_ns")),
    # renamed roadm1-roadm2, silently, before
    pytest.param("topology.links[0].id", "", "topology: link: empty link id",
                 id="topology.links[0].id--topology: link: empty link id"),
    # every plan took r1-r2, so each case measured 798.407 us whatever its
    # length: validate and a run exited 0 before
    pytest.param("latency.measured_link", "r2-r3", "latency.cases[0]",
                 id="latency.measured_link-off-the-path"),
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


def test_nanosecond_delays_at_their_bound_run(tmp_path, capsys):
    # every nanosecond delay a document sets, at its bound of 1e9 s: the
    # round trips stay within the clock and floats
    doc = shipped("paper_table2.json")
    for section in (doc["topology"]["links"], doc["latency"]["cases"]):
        for item in section:
            item["legacy_residual_delay_ns"] = 10**18
    doc["latency"]["probe"] = dict.fromkeys((
        "probe_overhead_ns", "switch_overhead_ns",
        "optical_device_overhead_ns", "jitter_sigma_ns"), 10**18)
    scenario = write(tmp_path, doc)
    assert main(["validate", "--scenario", scenario]) == 0
    assert main(["latency", "--scenario", scenario, "--repeat", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_jittered_probe_never_measures_less_than_propagation(tmp_path):
    # 10 ms of probe jitter on a 2.1 m case: a shot below the light's round
    # trip is clamped to it, so no delta is negative
    doc = shipped("paper_table2.json")
    doc["latency"].update(probe={"jitter_sigma_ns": 10**7}, repetitions=3)
    out = tmp_path / "report.json"
    assert main(["latency", "--scenario", write(tmp_path, doc),
                 "--format", "json", "--out", str(out)]) == 0
    cases = json.loads(out.read_text())["results"]["latency"]["cases"]
    assert all(float(case["delta_us"]) >= 0 for case in cases)


@pytest.mark.parametrize("command,world", [
    ("setup", "setup repetition 1"),
    ("latency", "latency.cases[0] repetition 1"),
    ("softfail", "softfail.cases[0] (drift): repetition 1"),
    ("demo", "setup repetition 1"),
])
def test_failed_deployment_names_its_world(tmp_path, capsys, command, world):
    # 200 us of probe jitter against 1.6 us of headroom over the noiseless
    # round trip: at seed 1, the second world of each experiment fails its
    # probe verification
    doc = make_scenario(experiment="full_demo", seed=1, latency={
        "measured_link": "r1-r2", "repetitions": 3,
        "cases": [{"length_km": 79.9695}],
        "probe": {"jitter_sigma_ns": 200000},
    }, softfail={
        "repetitions": 3, "emit_trace": False,
        "cases": [{"name": "drift", "rate_db_per_s": 0.25}],
    })
    doc["service"].update(jitter=True, repetitions=3)
    doc["service"]["connectivity"]["max_rt_latency_us"] = 800
    assert main([command, "--scenario", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        f"runtime error: {world}: deployment ended Failed: probe "
        f"verification exceeded latency requirement\n")


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


def test_latency_requirement_is_checked_on_each_case_ring(tmp_path, capsys):
    # each plan takes an arc whose noiseless probe shot meets the bound on
    # its own ring.  The scenario ring's r1-r2 (80 km) gives 798.4 us; a case
    # that sets it to 90 km gives 896.6 us, past 850 us, so that case takes
    # the spare arc, which leaves out the link the case measures
    doc = latency_doc()
    doc["latency"]["cases"].append({"length_km": 90.0})
    doc["service"]["connectivity"]["max_rt_latency_us"] = 850
    assert main(["latency", "--scenario", write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "error: latency.cases[2]: the service's path r3-r1+r2-r3 leaves out "
        "latency.measured_link r1-r2\n")
    doc["service"]["connectivity"]["max_rt_latency_us"] = 896.64
    assert main(["validate", "--scenario", write(tmp_path, doc)]) == 0
    # measuring r2-r3, on the spare arc: at 100 km it takes that arc to
    # 1061.17 us, so neither arc of the second case's ring meets 600 us
    doc = latency_doc(latency={"measured_link": "r2-r3", "cases": [
        {"length_km": 41.3665}, {"length_km": 100.0}]})
    doc["service"]["connectivity"]["max_rt_latency_us"] = 600
    assert main(["latency", "--scenario", write(tmp_path, doc)]) == 1
    assert ("service.connectivity.max_rt_latency_us: 600 us is below what a "
            "probe measures without jitter over either arc in "
            "latency.cases[1]: 798.407 us over r1-r2 and 1061.17 us over "
            "r3-r1+r2-r3") in capsys.readouterr().err
    del doc["latency"]["cases"][1]
    assert main(["latency", "--scenario", write(tmp_path, doc)]) == 0


def test_the_latency_bound_chooses_the_arc(tmp_path, capsys):
    # on the shipped ring a probe measures 798.407 us over r1-r2 without
    # jitter, and 486.945 us over the spare arc: a 600 us bound deploys the
    # service on the spare arc, and a soft-failure link must lie on it
    doc = shipped("paper_setup.json")
    doc["service"]["connectivity"]["max_rt_latency_us"] = 600
    assert scenario_from_dict(doc).plans[0].path.links == ("r3-r1", "r2-r3")
    assert main(["setup", "--scenario", write(tmp_path, doc),
                 "--repeat", "3"]) == 0
    drill = softfail_doc()
    drill["service"]["connectivity"]["max_rt_latency_us"] = 600
    assert main(["softfail", "--scenario", write(tmp_path, drill)]) == 0
    capsys.readouterr()
    drill["softfail"]["cases"][0]["link"] = "r1-r2"
    assert main(["softfail", "--scenario", write(tmp_path, drill)]) == 1
    assert capsys.readouterr().err == (
        "error: softfail.cases[0].link: r1-r2 is not on the monitored path "
        "r3-r1+r2-r3\n")
    # a bound that neither arc meets exits 1, naming both arcs' figures
    doc["service"]["connectivity"]["max_rt_latency_us"] = 400
    assert main(["setup", "--scenario", write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "error: service.connectivity.max_rt_latency_us: 400 us is below what "
        "a probe measures without jitter over either arc: 798.407 us over "
        "r1-r2 and 486.945 us over r3-r1+r2-r3\n")


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(SCENARIO_DIR.parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_loads_no_scipy():
    env = src_env()
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, metrotwin.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # a stream loads numpy.random on its first draw, not at import; numpy
    # before 2.0 loads it with numpy itself, which this does not count
    env = src_env()
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; before = set(sys.modules); "
         "import metrotwin.cli; print(sorted(m for m in sys.modules if "
         "m not in before and m.startswith('numpy.random')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_runs_in_one_process_report_what_each_reports_alone(tmp_path,
                                                            capsys):
    # main builds its parser once a process: a run after another reports
    # what it reports in a fresh interpreter, and the first run's --rate
    # does not reach the second
    path = write(tmp_path, softfail_doc())
    runs = [["softfail", "--scenario", path, "--rate", "0.5",
             "--format", "json"],
            ["softfail", "--scenario", path, "--format", "json"]]
    alone = [subprocess.run([sys.executable, "-m", "metrotwin.cli", *argv],
                            env=src_env(), capture_output=True, text=True,
                            check=True).stdout for argv in runs]
    together = []
    for argv in runs:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
    assert together == alone
    rates = [[case["rate_db_per_s"] for case in
              json.loads(out)["results"]["softfail"]["cases"]]
             for out in together]
    assert rates == [["0.5000"], ["0.2500"]]


def test_report_bytes_do_not_depend_on_the_hash_seed():
    # str hashing is salted per process: a report must not depend on set or
    # dict order of strings, nor on hash() in a spawn key
    argv = ["demo", "--scenario", str(SCENARIO_DIR / "paper_full_demo.json"),
            "--repeat", "2", "--format", "json"]
    reports = [subprocess.run(
        [sys.executable, "-m", "metrotwin.cli", *argv],
        env={**src_env(), "PYTHONHASHSEED": hash_seed},
        capture_output=True, check=True).stdout for hash_seed in ("1", "2")]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["results"]["setup"]["repetitions"] == 2


def test_runs_in_one_process_hold_no_memory(tmp_path):
    # 30 validate runs in a row grow traced memory by about 2 KB; building
    # a parser on each run grew it by about 19 KB
    argv = ["validate", "--scenario", write(tmp_path, make_scenario())]
    with open(os.devnull, "w", buffering=1) as sink, \
            contextlib.redirect_stdout(sink):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                assert main(argv) == 0
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert grown < 8 * 1024


@pytest.mark.parametrize("jitter_sigma_ns", [0, 400])
def test_a_world_makes_no_plant_and_a_stream_only_where_it_draws(
        tmp_path, monkeypatch, jitter_sigma_ns):
    # a world's deployment draws through its runner's key table; a SimRng
    # is made for a soft-failure episode's noise, and under probe jitter
    # for the deployment's probe and a latency world's probe, and each draws
    doc = shipped("paper_full_demo.json")
    doc["latency"]["probe"]["jitter_sigma_ns"] = jitter_sigma_ns
    plants, made, drew = [], [], set()
    init, normal = SimRng.__init__, SimRng.normal

    def recording_init(self, keys, spawn_key):
        made.append(self)
        init(self, keys, spawn_key)

    def recording_normal(self, mu=0.0, sigma=1.0, size=None):
        if sigma:
            drew.add(id(self))
        return normal(self, mu, sigma, size)

    monkeypatch.setattr(SimRng, "__init__", recording_init)
    monkeypatch.setattr(SimRng, "normal", recording_normal)
    monkeypatch.setattr(OpticalPlant, "__init__",
                        lambda self, state: plants.append(state))
    assert main(["demo", "--scenario", write(tmp_path, doc), "--repeat", "1",
                 "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert plants == []
    assert drew == {id(rng) for rng in made}
    # (root, path) of each stream, in the order the runners make them
    probe = (STACK_STREAM, hash_label(REQUEST_ID), PROBE_STREAM)
    expected = noise = [((100 + case, 0), (NOISE_STREAM,)) for case in range(2)]
    if jitter_sigma_ns:
        expected = [((0,), probe)] + [
            stream for root, leaf in [((200 + case, 0), (LATENCY_PROBE_STREAM,))
                                      for case in range(4)] + noise
            for stream in ((root, probe), (root, leaf))]
    assert [(rng.spawn_key[:len(rng.keys.roots[0])],
             rng.spawn_key[len(rng.keys.roots[0]):]) for rng in made] == expected


def test_the_bench_tracer_finds_every_name_it_patches(tmp_path, monkeypatch):
    # perfbench's tracer patches twin functions by name: a traced demo run
    # writes the untraced report, and names each fired event's layer by its
    # action's module, never functools or other
    monkeypatch.syspath_prepend(str(SCENARIO_DIR.parents[2] / "perfbench"))
    import tracer

    argv = ["demo", "--scenario", str(SCENARIO_DIR / "paper_full_demo.json"),
            "--repeat", "1", "--format", "json", "--out"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(argv + [str(plain)]) == 0
    spans = tracer.Tracer()
    with tracer.tracing(spans):
        spans.enter(tracer.ROOT_SPAN)
        try:
            assert main(argv + [str(traced)]) == 0
        finally:
            spans.exit()
    assert traced.read_bytes() == plain.read_bytes()
    fired = {name for name in spans.self_ns if name.endswith(".fire")}
    assert {"controlplane.fire", "mda.fire"} <= fired
    assert not {"functools.fire", "other.fire"} & fired
    assert spans.calls["simkernel.rng_init"] == 2
