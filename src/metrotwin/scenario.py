"""Scenario files: schema, loading, execution, canonical reports.

A scenario is one JSON document describing the ring, the service request and
the experiment to run over them.  ``run_scenario`` provisions a fresh world
per repetition (nothing leaks between repetitions) and produces a RunReport
whose canonical JSON form is byte-identical for identical inputs: every
floating-point result is rendered to a fixed number of decimals at build
time, and keys are emitted sorted.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Optional, Union

from .controlplane import (ConnectivityRequirements, NsDescriptor,
                           OrchestrationStack, PhaseTimings, VnfDescriptor)
from .errors import ParseError, TwinError, ValidationError
from .mda import DetectorConfig, SoftFailWorld, run_softfail_case
from .optics import OpticalPlant, SignalModel
from .probe import (LatencyMeasurement, ProbeConfig, budget_from_config,
                    fit_budget, measure_round_trip)
from .simkernel import Kernel, SECOND, SimRng
from .topology import build_ring

ARTIFACT_VERSION = 1
EXPERIMENTS = ("setup_kpi", "latency", "softfail", "full_demo")

# allowed keys per schema node; used for strict validation and lenient warnings
_SCHEMA = {
    "": {"experiment", "seed", "description", "topology", "service",
         "latency", "softfail"},
    "topology": {"roadms", "links", "transponders", "switches",
                 "compute_nodes", "channel_grid_size"},
    "topology.links[]": {"id", "endpoints", "length_m", "group_index",
                         "legacy_residual_delay_ns"},
    "topology.transponders[]": {"id", "roadm", "config_duration_ns",
                                "warmup_duration_ns"},
    "topology.switches[]": {"id", "transponder"},
    "topology.compute_nodes[]": {"id", "switch", "vcpu_capacity",
                                 "mem_capacity_mb"},
    "service": {"name", "vnfs", "connectivity", "phase_durations", "jitter",
                "repetitions"},
    "service.vnfs[]": {"name", "vcpu", "mem_mb", "instantiation_mean_s",
                       "instantiation_cv", "compute"},
    "service.connectivity": {"endpoints", "max_rt_latency_us"},
    "service.phase_durations": {"control_messaging_s", "roadm_config_s",
                                "probe_verify_s", "retune_s", "alert_hop_s"},
    "latency": {"measured_link", "cases", "repetitions", "probe", "attribution"},
    "latency.cases[]": {"length_km", "legacy_residual_delay_ns"},
    "latency.probe": {"probe_overhead_ns", "switch_overhead_ns",
                      "optical_device_overhead_ns", "jitter_sigma_ns"},
    "latency.attribution": {"components", "matrix"},
    "softfail": {"repetitions", "noise_sigma_db", "emit_trace", "signal",
                 "detector", "cases"},
    "softfail.signal": {"snr0_db", "implementation_penalty_db",
                        "fail_ber_above"},
    "softfail.detector": {"sample_period_s", "baseline_window",
                          "drop_threshold_db", "consecutive_required",
                          "regression_window"},
    "softfail.cases[]": {"name", "rate_db_per_s", "snr_coupling",
                         "drop_threshold_db", "link"},
}

_REQUIRED = {
    "": {"experiment", "seed", "topology", "service"},
    "service": {"vnfs", "connectivity"},
    "service.vnfs[]": {"name", "compute"},
    "service.connectivity": {"endpoints"},
    "latency": {"measured_link", "cases"},
    "latency.cases[]": {"length_km"},
    "latency.attribution": {"components", "matrix"},
    "softfail": {"cases"},
    "softfail.cases[]": {"rate_db_per_s"},
    "topology": {"roadms", "links", "transponders", "switches",
                 "compute_nodes"},
    "topology.links[]": {"id", "endpoints", "length_m"},
    "topology.transponders[]": {"id", "roadm"},
    "topology.switches[]": {"id", "transponder"},
    "topology.compute_nodes[]": {"id", "switch"},
}


@dataclass
class Scenario:
    experiment: str
    seed: int
    raw: dict
    warnings: list[str] = field(default_factory=list)

    @property
    def topology(self) -> dict:
        return self.raw["topology"]

    @property
    def service(self) -> dict:
        return self.raw["service"]

    @property
    def latency(self) -> Optional[dict]:
        return self.raw.get("latency")

    @property
    def softfail(self) -> Optional[dict]:
        return self.raw.get("softfail")

    def serialize(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2) + "\n"


def _check_keys(node: dict, schema_path: str, errors: list[str],
                warnings: list[str]) -> None:
    allowed = _SCHEMA.get(schema_path)
    required = _REQUIRED.get(schema_path, set())
    for key in node:
        if allowed is not None and key not in allowed:
            warnings.append(f"{schema_path or 'top level'}: unknown key {key!r}")
    for key in required:
        if key not in node:
            errors.append(f"{schema_path or 'top level'}: missing key {key!r}")


def _walk(node, schema_path: str, errors: list[str], warnings: list[str]) -> None:
    if isinstance(node, dict):
        _check_keys(node, schema_path, errors, warnings)
        for key, value in node.items():
            child = f"{schema_path}.{key}" if schema_path else key
            if child in _SCHEMA or f"{child}[]" in _SCHEMA or child in _REQUIRED:
                _walk(value, child, errors, warnings)
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, dict):
                _walk(item, f"{schema_path}[]", errors, warnings)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return _integer(value) or (isinstance(value, float)
                               and math.isfinite(value))


_COUNT = (lambda v: _integer(v) and v >= 1, "a positive integer")
_NUMBER = (_number, "a number")
_NON_NEGATIVE = (lambda v: _number(v) and v >= 0, "a number >= 0")

# key path -> (test, requirement) for values that would otherwise fail only
# once a run is underway, or keep it running without end.  The ranges of the
# signal and detector values are SignalModel's and DetectorConfig's own.
_VALUE_RULES = {
    "service.repetitions": _COUNT,
    "latency.repetitions": _COUNT,
    "latency.cases[].length_km": _NON_NEGATIVE,
    "softfail.repetitions": _COUNT,
    "softfail.noise_sigma_db": _NON_NEGATIVE,
    "softfail.signal.snr0_db": _NUMBER,
    "softfail.signal.implementation_penalty_db": _NUMBER,
    "softfail.signal.fail_ber_above": _NUMBER,
    "softfail.detector.sample_period_s": (
        lambda v: _number(v) and 1e-9 <= v <= 1e9,
        "a number of seconds in [1e-9, 1e9]"),
    "softfail.detector.baseline_window": _COUNT,
    "softfail.detector.drop_threshold_db": _NUMBER,
    "softfail.detector.consecutive_required": _COUNT,
    "softfail.detector.regression_window": _COUNT,
    "softfail.cases[].rate_db_per_s": (lambda v: _number(v) and v > 0,
                                       "a positive number"),
    "softfail.cases[].snr_coupling": (lambda v: _number(v) and 0 < v <= 1.5,
                                      "a number in (0, 1.5]"),
    "softfail.cases[].drop_threshold_db": _NUMBER,
}


def _nodes(doc: dict, path: str) -> list[tuple[str, dict]]:
    """(label, node) of each object at a schema path like 'softfail.cases[]'."""
    found: list[tuple[str, object]] = [("", doc)]
    for part in path.split("."):
        name = part.removesuffix("[]")
        below: list[tuple[str, object]] = []
        for label, node in found:
            child = node.get(name) if isinstance(node, dict) else None
            where = f"{label}.{name}" if label else name
            if not part.endswith("[]"):
                below.append((where, child))
            elif isinstance(child, list):
                below += [(f"{where}[{i}]", item) for i, item in enumerate(child)]
        found = below
    return [(label, node) for label, node in found if isinstance(node, dict)]


def _check_values(doc: dict, errors: list[str]) -> None:
    """Reject values that would otherwise only fail once the run is underway."""
    bad = len(errors)
    for key_path, (ok, requirement) in _VALUE_RULES.items():
        path, _, key = key_path.rpartition(".")
        for label, node in _nodes(doc, path):
            if key in node and not ok(node[key]):
                errors.append(f"{label}.{key} must be {requirement}; "
                              f"got {node[key]!r}")
    if len(errors) == bad:
        for path, build in (("softfail.signal", _signal_model),
                            ("softfail.detector", _detector_config)):
            for label, node in _nodes(doc, path):
                try:
                    build(node)
                except ValueError as exc:
                    errors.append(f"{label}: {exc}")


def scenario_from_dict(doc: dict, lenient: bool = False) -> Scenario:
    """Validate a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    errors: list[str] = []
    warnings: list[str] = []
    _walk(doc, "", errors, warnings)
    _check_values(doc, errors)

    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment must be one of {', '.join(EXPERIMENTS)}; "
                      f"got {experiment!r}")
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"seed must be a non-negative integer; got {seed!r}")
    if experiment in ("latency", "full_demo") and "latency" not in doc:
        errors.append(f"experiment {experiment!r} needs a 'latency' section")
    if experiment in ("softfail", "full_demo") and "softfail" not in doc:
        errors.append(f"experiment {experiment!r} needs a 'softfail' section")

    if errors:
        raise ValidationError("; ".join(errors))
    if warnings and not lenient:
        raise ValidationError("; ".join(warnings))
    return Scenario(experiment=experiment, seed=seed, raw=doc,
                    warnings=warnings)


def load_scenario(source: Union[str, Path], lenient: bool = False) -> Scenario:
    """Parse and validate a scenario JSON file (or raw JSON text)."""
    text = None
    if isinstance(source, Path) or (isinstance(source, str)
                                    and not source.lstrip().startswith("{")):
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    else:
        text = str(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(doc, lenient=lenient)


# ------------------------------------------------------------- world setup


def _phase_timings(service: dict) -> PhaseTimings:
    pd = service.get("phase_durations", {})
    base = PhaseTimings()
    return PhaseTimings(
        control_messaging_ns=round(pd.get("control_messaging_s",
                                          base.control_messaging_ns / SECOND) * SECOND),
        roadm_config_ns=round(pd.get("roadm_config_s",
                                     base.roadm_config_ns / SECOND) * SECOND),
        probe_verify_ns=round(pd.get("probe_verify_s",
                                     base.probe_verify_ns / SECOND) * SECOND),
        retune_ns=round(pd.get("retune_s", base.retune_ns / SECOND) * SECOND),
        alert_hop_ns=round(pd.get("alert_hop_s",
                                  base.alert_hop_ns / SECOND) * SECOND),
    )


def _probe_config(sc: Scenario) -> ProbeConfig:
    section = (sc.latency or {}).get("probe", {})
    base = ProbeConfig()
    return ProbeConfig(
        probe_overhead_ns=int(section.get("probe_overhead_ns",
                                          base.probe_overhead_ns)),
        switch_overhead_ns=int(section.get("switch_overhead_ns",
                                           base.switch_overhead_ns)),
        optical_device_overhead_ns=int(section.get(
            "optical_device_overhead_ns", base.optical_device_overhead_ns)),
        jitter_sigma_ns=int(section.get("jitter_sigma_ns",
                                        base.jitter_sigma_ns)),
    )


def _ns_descriptor(service: dict) -> NsDescriptor:
    vnfs = [VnfDescriptor(
        name=v["name"],
        vcpu=int(v.get("vcpu", 4)),
        mem_mb=int(v.get("mem_mb", 8192)),
        instantiation_mean_s=float(v.get("instantiation_mean_s", 40.0)),
        instantiation_cv=float(v.get("instantiation_cv", 0.05)),
        target_compute=v["compute"],
    ) for v in service["vnfs"]]
    conn = service["connectivity"]
    max_lat = conn.get("max_rt_latency_us")
    requirements = ConnectivityRequirements(
        endpoints=tuple(conn["endpoints"]),
        max_rt_latency_ns=None if max_lat is None else round(max_lat * 1000),
    )
    return NsDescriptor(name=service.get("name", "ns"), vnfs=vnfs,
                        connectivity=requirements)


def build_world(sc: Scenario, spawn_key: tuple[int, ...],
                length_override_m: Optional[float] = None,
                residual_override_ns: Optional[int] = None,
                trace_sink: Optional[IO[str]] = None) -> SoftFailWorld:
    """Provision one isolated world and deploy the scenario's service in it."""
    topo_section = copy.deepcopy(sc.topology)
    if length_override_m is not None or residual_override_ns is not None:
        target = (sc.latency or {}).get("measured_link")
        found = False
        for link in topo_section["links"]:
            if link["id"] == target:
                if length_override_m is not None:
                    link["length_m"] = length_override_m
                if residual_override_ns is not None:
                    link["legacy_residual_delay_ns"] = residual_override_ns
                found = True
        if not found:
            raise ValidationError(f"measured_link {target!r} not in topology")

    topo = build_ring(topo_section)
    kernel = Kernel(trace=trace_sink)
    rng = SimRng(sc.seed, spawn_key=spawn_key)
    stack = OrchestrationStack(
        topo, kernel, rng.split(0),
        timings=_phase_timings(sc.service),
        probe_cfg=_probe_config(sc),
        jitter=bool(sc.service.get("jitter", False)))
    record = stack.request_network_service(_ns_descriptor(sc.service))
    kernel.run_to_end()
    if record.status.value != "Active":
        raise TwinError(f"deployment ended {record.status.value}: "
                        f"{record.failure_reason}")
    return SoftFailWorld(kernel=kernel, topo=topo, plant=OpticalPlant(topo),
                         stack=stack, record=record, rng=rng)


# --------------------------------------------------------------- reporting


def _fmt(x: float, decimals: int) -> str:
    return f"{x:.{decimals}f}"


@dataclass
class RunReport:
    experiment: str
    seed: int
    scenario: dict
    results: dict

    def to_dict(self) -> dict:
        return {"artifact_version": ARTIFACT_VERSION,
                "experiment": self.experiment,
                "seed": self.seed,
                "scenario": self.scenario,
                "results": self.results}

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _run_setup(sc: Scenario, trace_sink=None) -> dict:
    reps = int(sc.service.get("repetitions", 28))
    rows = []
    kpis = []
    for rep in range(reps):
        world = build_world(sc, (rep,), trace_sink=trace_sink)
        report = world.stack.compute_kpis(world.record)
        kpis.append(report)
        rows.append({
            "repetition": rep,
            "kpi_ns_deploy_s": _fmt(report.kpi_ns_deploy_ns / SECOND, 3),
            "kpi_connectivity_s": _fmt(report.kpi_connectivity_ns / SECOND, 3),
            "kpi_e2e_s": _fmt(report.kpi_e2e_ns / SECOND, 3),
            "e2e_excl_transponder_s": _fmt(
                report.e2e_excl_transponder_ns / SECOND, 3),
        })

    def stats(values: list[float]) -> dict:
        n = len(values)
        mean = sum(values) / n
        var = (sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        return {"mean_s": _fmt(mean, 3), "std_s": _fmt(var ** 0.5, 3),
                "min_s": _fmt(min(values), 3), "max_s": _fmt(max(values), 3)}

    return {
        "repetitions": reps,
        "per_repetition": rows,
        "summary": {
            "kpi_ns_deploy": stats([k.kpi_ns_deploy_ns / SECOND for k in kpis]),
            "kpi_connectivity": stats([k.kpi_connectivity_ns / SECOND
                                       for k in kpis]),
            "kpi_e2e": stats([k.kpi_e2e_ns / SECOND for k in kpis]),
            "e2e_excl_transponder": stats([k.e2e_excl_transponder_ns / SECOND
                                           for k in kpis]),
        },
    }


def _run_latency(sc: Scenario, trace_sink=None) -> dict:
    section = sc.latency
    assert section is not None
    reps = int(section.get("repetitions", 1))
    rows = []
    deltas = []
    for case_idx, case in enumerate(section["cases"]):
        length_m = float(case["length_km"]) * 1000.0
        residual = int(case.get("legacy_residual_delay_ns", 0))
        measured = []
        estimated = None
        for rep in range(reps):
            world = build_world(sc, (200 + case_idx, rep),
                                length_override_m=length_m,
                                residual_override_ns=residual,
                                trace_sink=trace_sink)
            rec = world.record
            probe_rng = world.rng.split(5)
            m = measure_round_trip(rec.path, world.topo, world.stack.probe_cfg,
                                   kernel=world.kernel, rng=probe_rng)
            measured.append(m.measured_rt_ns)
            estimated = m.estimated_rt_prop_ns
        mean_measured = sum(measured) / len(measured)
        delta = mean_measured - estimated
        if residual == 0:  # only clean rows inform the overhead budget
            deltas.append(delta)
        rows.append({
            "link_length_km": _fmt(length_m / 1000.0, 4),
            "measured_us": _fmt(mean_measured / 1000.0, 3),
            "estimated_us": _fmt(estimated / 1000.0, 3),
            "delta_us": _fmt(delta / 1000.0, 3),
        })

    attribution = section.get("attribution")
    cfg = _probe_config(sc)
    if attribution is not None:
        ms = [LatencyMeasurement(0.0, int(round(d)), 0) for d in deltas]
        budget = fit_budget(ms, attribution["matrix"],
                            attribution["components"])
    else:
        budget = budget_from_config(cfg, [int(round(d)) for d in deltas])
    return {
        "repetitions": reps,
        "cases": rows,
        "budget": {
            "components_us": {k: _fmt(v / 1000.0, 3)
                              for k, v in budget.components_ns.items()},
            "residual_rms_us": _fmt(budget.residual_rms_ns / 1000.0, 3),
        },
    }


def _signal_model(signal: dict) -> SignalModel:
    """The ``softfail.signal`` keys are SignalModel fields; unset ones keep
    the dataclass default."""
    return SignalModel(**{key: float(value) for key, value in signal.items()
                          if key in _SCHEMA["softfail.signal"]})


def _detector_config(det: dict) -> DetectorConfig:
    """``softfail.detector`` as a DetectorConfig; unset keys keep its
    defaults."""
    return DetectorConfig(
        sample_period_ns=round(float(det.get("sample_period_s", 1.0)) * SECOND),
        baseline_window=int(det.get("baseline_window", 60)),
        drop_threshold_db=float(det.get("drop_threshold_db", 0.5)),
        consecutive_required=int(det.get("consecutive_required", 3)),
        regression_window=int(det.get("regression_window", 30)),
    )


def _run_softfail(sc: Scenario, trace_sink=None) -> dict:
    section = sc.softfail
    assert section is not None
    reps = int(section.get("repetitions", 10))
    noise = float(section.get("noise_sigma_db", 0.0))
    emit_trace = bool(section.get("emit_trace", True))
    model = _signal_model(section.get("signal", {}))
    base_detector = _detector_config(section.get("detector", {}))

    cases_out = []
    for idx, case in enumerate(section["cases"]):
        detector_cfg = base_detector
        if "drop_threshold_db" in case:
            detector_cfg = replace(
                base_detector,
                drop_threshold_db=float(case["drop_threshold_db"]))
        factory = (lambda case_idx: lambda rep: build_world(
            sc, (100 + case_idx, rep), trace_sink=trace_sink))(idx)
        report = run_softfail_case(
            world_factory=factory,
            rate_db_per_s=float(case["rate_db_per_s"]),
            repetitions=reps,
            noise_sigma_db=noise,
            detector_cfg=detector_cfg,
            model=model,
            snr_coupling=float(case.get("snr_coupling", 1.0)),
            ramp_link=case.get("link"),
            keep_trace=emit_trace)
        entry = {
            "name": case.get("name", f"case{idx + 1}"),
            "rate_db_per_s": _fmt(report.rate_db_per_s, 4),
            "repetitions": report.repetitions,
            "detection_time_s": _fmt(report.detection_time_s, 3),
            "detection_time_min": _fmt(report.detection_time_s / 60.0, 3),
            "anticipation_s": _fmt(report.anticipation_s, 3),
            "anticipation_min": _fmt(report.anticipation_s / 60.0, 3),
            "predicted_anticipation_s": _fmt(report.predicted_anticipation_s, 3),
            "mean_detection_snr_db": _fmt(report.mean_detection_snr_db, 2),
            "mean_detection_ber": f"{report.mean_detection_ber:.3e}",
            "restored": report.restored_count,
            "failed": report.failed_count,
        }
        if emit_trace:
            entry["trace"] = [[_fmt(t, 1), _fmt(snr, 4), f"{ber:.3e}"]
                              for t, snr, ber in report.trace]
        cases_out.append(entry)
    return {"repetitions": reps, "noise_sigma_db": _fmt(noise, 3),
            "cases": cases_out}


def run_scenario(sc: Scenario, trace_sink: Optional[IO[str]] = None) -> RunReport:
    """Execute the scenario's experiment and wrap results in a RunReport."""
    if sc.experiment == "setup_kpi":
        results = {"setup": _run_setup(sc, trace_sink)}
    elif sc.experiment == "latency":
        results = {"latency": _run_latency(sc, trace_sink)}
    elif sc.experiment == "softfail":
        results = {"softfail": _run_softfail(sc, trace_sink)}
    elif sc.experiment == "full_demo":
        results = {
            "setup": _run_setup(sc, trace_sink),
            "latency": _run_latency(sc, trace_sink),
            "softfail": _run_softfail(sc, trace_sink),
        }
    else:  # unreachable after validation
        raise ValidationError(f"unknown experiment {sc.experiment!r}")
    return RunReport(experiment=sc.experiment, seed=sc.seed,
                     scenario=sc.raw, results=results)
