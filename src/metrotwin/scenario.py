"""Scenario files: schema, loading, execution, canonical reports.

A scenario is one JSON document describing the ring, the service request and
the experiment to run over them.  ``scenario_from_dict`` checks it against one
table, ``_TABLE``, and reads it once into typed objects.  ``run_scenario``
provisions a fresh world per repetition (nothing leaks between repetitions)
and produces a RunReport whose canonical JSON form is byte-identical for
identical inputs: every floating-point result is rendered to a fixed number
of decimals, at build time or, for a soft-failure trace's rows and the
setup table's, when the report is written, and keys are emitted sorted.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from itertools import starmap
from pathlib import Path
from typing import IO, NamedTuple, Optional, Union

from .controlplane import (ConnectivityRequirements, DeployPlan, KpiReport,
                           NsDescriptor, OrchestrationStack, PhaseTimings,
                           ServiceStatus, VnfDescriptor)
from .errors import FieldInvalid, ParseError, TwinError, ValidationError
from .mda import (DetectorConfig, SoftFailWorld, episode_horizon,
                  run_softfail_case)
from .optics import SignalModel, SPEED_OF_LIGHT_M_PER_S
from .probe import (ProbeConfig, budget_from_config, fit_budget,
                    measure_round_trip)
from .simkernel import Kernel, KeyTable, SECOND, SimRng
from .topology import FiberLink, RingTopology, build_ring

ARTIFACT_VERSION = 1
LATENCY_PROBE_STREAM = 5  # a latency world's probe jitter, below its root
# each experiment's results sections, in run order; a "latency" or
# "softfail" section needs the document's section of that name
SECTIONS = {"setup_kpi": ("setup",), "latency": ("latency",),
            "softfail": ("softfail",),
            "full_demo": ("setup", "latency", "softfail")}
EXPERIMENTS = tuple(SECTIONS)

_UNSET = object()


class _Key(NamedTuple):
    """A key's kind, presence, range (in its own unit), unit and field."""
    kind: str  # a key of _KINDS
    required: bool = False
    low: Optional[float] = None  # value >= low
    above: Optional[float] = None  # value > above
    high: Optional[float] = None  # value <= high
    unit: Optional[str] = None  # a key of _UNITS
    field: Optional[str] = None  # target field, when it is not the key
    default: object = _UNSET  # only where no target owns the default


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> bool:
    return _integer(value) or (isinstance(value, float)
                               and math.isfinite(value))


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


_KINDS = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "objects": (lambda v: v != [] and _list_of(lambda o: isinstance(o, dict))(v),
                "a non-empty list of objects"),
    "integer": (_integer, "an integer"),
    "number": (_number, "a number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "pair": (lambda v: _KINDS["strings"][0](v) and len(v) == 2,
             "a pair of strings"),
    "strings": (_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "matrix": (_list_of(_list_of(_number)), "a list of rows of numbers"),
    "experiment": (lambda v: v in EXPERIMENTS,
                   f"one of {', '.join(EXPERIMENTS)}"),
}

# seconds and microseconds are read into nanoseconds, kilometres into metres
_UNITS = {"s": lambda v: round(v * SECOND), "us": lambda v: round(v * 1000),
          "km": lambda v: v * 1000.0}

# the longest duration in seconds; in nanoseconds it fits the 64-bit clock
_MAX_S = 1e9
# the longest link in metres, whose round trip at group index 2 lasts _MAX_S:
# a probe's round trip over up to nine such links fits the 64-bit clock
_MAX_M = _MAX_S * SPEED_OF_LIGHT_M_PER_S / 4
# the largest coefficient of variation whose square, and so the lognormal
# draw's log1p(cv**2), is finite
_MAX_CV = math.sqrt(sys.float_info.max)

_NAME, _OBJECT, _OBJECTS = (_Key(kind, True)
                            for kind in ("string", "object", "objects"))
_NUMBER, _INTEGER = _Key("number"), _Key("integer")
# a delay in nanoseconds, at most _MAX_S
_NS = _Key("integer", low=0, high=_MAX_S * SECOND)

# schema path -> (the target its fields build, or None to keep them as a
# dict; its keys).  Ranges that a target checks itself are not repeated.
_TABLE = {
    "": (None, {
        "experiment": _Key("experiment", True),
        "seed": _Key("integer", True, low=0), "description": _Key("string"),
        "topology": _OBJECT, "service": _OBJECT,
        "latency": _Key("object"), "softfail": _Key("object")}),
    "topology": (None, {
        "roadms": _Key("strings", True), "links": _OBJECTS,
        "transponders": _OBJECTS, "switches": _OBJECTS,
        "compute_nodes": _OBJECTS}),
    "topology.links[]": (None, {
        "id": _NAME, "endpoints": _Key("pair", True),
        "length_m": _Key("number", True, high=_MAX_M),
        "group_index": _NUMBER, "legacy_residual_delay_ns": _NS}),
    "topology.transponders[]": (None, {
        "id": _NAME, "roadm": _NAME,
        "config_duration_ns": _Key("integer", low=1, high=_MAX_S * SECOND),
        "warmup_duration_ns": _Key("integer", low=1, high=_MAX_S * SECOND)}),
    "topology.switches[]": (None, {"id": _NAME, "transponder": _NAME}),
    "topology.compute_nodes[]": (None, {
        "id": _NAME, "switch": _NAME,
        "vcpu_capacity": _INTEGER, "mem_capacity_mb": _INTEGER}),
    "service": (None, {
        "name": _Key("string", default="ns"),
        "vnfs": _OBJECTS, "connectivity": _OBJECT,
        "phase_durations": _Key("object", field="timings", default={}),
        "jitter": _Key("boolean", default=False),
        "repetitions": _Key("integer", low=1, default=28)}),
    "service.vnfs[]": (VnfDescriptor, {
        "name": _NAME,
        "vcpu": _Key("integer", low=0), "mem_mb": _Key("integer", low=0),
        "instantiation_mean_s": _Key("number", above=0, high=_MAX_S),
        "instantiation_cv": _Key("number", low=0, high=_MAX_CV),
        "compute": _Key("string", True, field="target_compute")}),
    "service.connectivity": (ConnectivityRequirements, {
        "endpoints": _Key("pair", True),
        "max_rt_latency_us": _Key("number", low=0, high=_MAX_S * 1e6,
                                  unit="us", field="max_rt_latency_ns")}),
    "service.phase_durations": (PhaseTimings, {
        f"{phase}_s": _Key("number", low=0, high=_MAX_S, unit="s",
                           field=f"{phase}_ns")
        for phase in ("control_messaging", "roadm_config", "probe_verify",
                      "retune", "alert_hop")}),
    "latency": (None, {
        "measured_link": _NAME, "cases": _OBJECTS,
        "repetitions": _Key("integer", low=1, default=1),
        "probe": _Key("object", default={}), "attribution": _Key("object")}),
    "latency.cases[]": (None, {
        "length_km": _Key("number", True, low=0, high=_MAX_M / 1000,
                          unit="km", field="length_m"),
        "legacy_residual_delay_ns": _NS}),
    "latency.probe": (ProbeConfig, {
        key: _NS
        for key in ("probe_overhead_ns", "switch_overhead_ns",
                    "optical_device_overhead_ns", "jitter_sigma_ns")}),
    "latency.attribution": (None, {
        "components": _Key("strings", True), "matrix": _Key("matrix", True)}),
    "softfail": (None, {
        "repetitions": _Key("integer", low=1, default=10),
        "noise_sigma_db": _Key("number", low=0, default=0.0),
        "emit_trace": _Key("boolean", default=True),
        "signal": _Key("object", default={}),
        "detector": _Key("object", default={}),
        "cases": _OBJECTS}),
    "softfail.signal": (SignalModel, {
        key: _NUMBER
        for key in ("snr0_db", "implementation_penalty_db", "fail_ber_above")}),
    "softfail.detector": (DetectorConfig, {
        "sample_period_s": _Key("number", low=1e-9, high=_MAX_S, unit="s",
                                field="sample_period_ns"),
        "baseline_window": _INTEGER,
        "drop_threshold_db": _Key("number", above=0),
        "consecutive_required": _INTEGER, "regression_window": _INTEGER}),
    # run_softfail_case's arguments, plus the case's name and its detector
    # drop_threshold_db
    "softfail.cases[]": (None, {
        "name": _Key("string"),
        "rate_db_per_s": _Key("number", True, above=0),
        "snr_coupling": _Key("number", above=0, high=1.5),
        "drop_threshold_db": _Key("number", above=0),
        "link": _Key("string", field="ramp_link")}),
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _requirement(spec: _Key) -> str:
    bounds = " and ".join(
        f"{op} {bound:g}" for op, bound in
        ((">=", spec.low), (">", spec.above), ("<=", spec.high))
        if bound is not None)
    return f"{_KINDS[spec.kind][1]} {bounds}".rstrip()


def _in_range(value, spec: _Key) -> bool:
    return ((spec.low is None or value >= spec.low)
            and (spec.above is None or value > spec.above)
            and (spec.high is None or value <= spec.high))


def _make(errors: list[str], where: str, build, *args, **kwargs):
    """``build(...)``, or None with its ValueError or TwinError reported as
    an error at ``where``, or at the field below it that it names."""
    try:
        return build(*args, **kwargs)
    except FieldInvalid as exc:
        errors.append(_join(where, str(exc)))
        return None
    except (ValueError, TwinError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _read(node: dict, path: str, where: str, errors: list[str],
          warnings: list[str]):
    """Check the object at indexed key path ``where`` against
    ``_TABLE[path]``; return its values by target field, built into the
    path's target if it has one and nothing at or below the object is wrong.
    """
    target, keys = _TABLE[path]
    warnings.extend(f"unknown key {_join(where, key)}" for key in node
                    if key not in keys)
    before = len(errors)
    values = {}
    for key, spec in keys.items():
        at = _join(where, key)
        value = node.get(key, spec.default)
        if value is _UNSET:
            if spec.required:
                errors.append(f"missing key {at}")
            continue
        if not (_KINDS[spec.kind][0](value) and _in_range(value, spec)):
            errors.append(f"{at} must be {_requirement(spec)}; got {value!r}")
            continue
        child = _join(path, key)
        if spec.kind == "object":
            value = _read(value, child, at, errors, warnings)
        elif spec.kind == "objects":
            value = [_read(item, f"{child}[]", f"{at}[{i}]", errors, warnings)
                     for i, item in enumerate(value)]
        elif spec.kind == "number":
            value = _UNITS.get(spec.unit, float)(value)
        elif spec.kind == "pair":
            value = tuple(value)
        values[spec.field or key] = value
    if target is None or len(errors) > before:
        return values
    return _make(errors, where, target, **values)


class Latency(NamedTuple):
    cases: list[FiberLink]  # the measured link as each case sets it
    repetitions: int
    probe: ProbeConfig
    attribution: Optional[dict] = None  # components, matrix


class SoftfailCase(NamedTuple):
    name: str
    detector: DetectorConfig
    episode: dict  # run_softfail_case's rate_db_per_s, snr_coupling, ramp_link


class Softfail(NamedTuple):
    repetitions: int
    noise_sigma_db: float
    emit_trace: bool
    signal: SignalModel
    cases: list[SoftfailCase]


class Scenario(NamedTuple):
    """A validated scenario: the document as parsed, and the typed objects
    read from it once, the deploy plans it checked among them."""
    experiment: str
    seed: int
    raw: dict  # as parsed: reports echo it
    repetitions: int  # the setup experiment's
    plans: Sequence[DeployPlan]  # on the ring, then each latency case's
    latency: Optional[Latency] = None
    softfail: Optional[Softfail] = None
    warnings: Sequence[str] = ()


def _case_ring(ring: RingTopology, link: FiberLink) -> RingTopology:
    """``ring`` with a latency case's link: the case's length replaces the
    measured link's, in that case's worlds only."""
    return RingTopology({**ring.links, link.id: link}, ring.ring_order,
                        ring.ring_links, ring.transponders, ring.compute_nodes)


def _sections(doc: dict, top: dict, errors: list[str]) -> tuple[
        int, list[DeployPlan], Optional[Latency], Optional[Softfail]]:
    """The setup repetitions, plans and typed sections of a document that
    passed the table, a ``DeployPlan`` per ring the service deploys on;
    checks every name the sections give against the ring, and each plan's
    probe shot against the latency requirement."""
    ring = _make(errors, "topology", build_ring, doc["topology"])
    if ring is None:
        return None, None, None, None

    def known(where: str, name: str, names: dict) -> bool:
        if name not in names:
            errors.append(f"{where}: the topology has no {name!r}")
        return name in names

    svc = top["service"]
    for i, vnf in enumerate(svc["vnfs"]):
        known(f"service.vnfs[{i}].compute", vnf.target_compute,
              ring.compute_nodes)
    conn = svc["connectivity"]
    a, b = conn.endpoints
    for i, end in enumerate((a, b)):
        known(f"service.connectivity.endpoints[{i}]", end, ring.transponders)
    if a != b and a in ring.transponders and b in ring.transponders \
            and (a, b) not in ring.arcs:
        errors.append(f"service.connectivity.endpoints: {a} and {b} "
                      f"terminate on the same ROADM "
                      f"{ring.transponders[a].attached_roadm}")
    ns = _make(errors, "service", NsDescriptor, svc.pop("name"),
               svc.pop("vnfs"), svc.pop("connectivity"))
    for node in ring.compute_nodes.values() if ns else ():
        asks = ns.demand.get(node.id, (0, 0))
        for key, ask, has in zip(("vcpu", "mem_mb"), asks,
                                 (node.vcpu_capacity, node.mem_capacity_mb)):
            if ask > has:  # reported at the last VNF on the node
                i = max(i for i, vnf in enumerate(ns.vnfs)
                        if vnf.target_compute == node.id)
                errors.append(f"service.vnfs[{i}].{key}: the VNFs on "
                              f"{node.id} ask for {ask} in all; it has {has}")

    rings = [ring]  # each ring the service deploys on
    probe_cfg = None
    latency = top.get("latency")
    if latency is not None and known("latency.measured_link",
                                     latency["measured_link"], ring.links):
        link = ring.links[latency.pop("measured_link")]
        latency["cases"] = [
            FiberLink(link.id, link.endpoints, group_index=link.group_index,
                      **case) for case in latency["cases"]]
        latency = Latency(**latency)
        probe_cfg = latency.probe
        rings += [_case_ring(ring, case) for case in latency.cases]
        if latency.attribution is not None:
            # the budget's own shape and rank checks, on the cases it reads
            _make(errors, "latency.attribution.matrix (one row per case "
                  "without legacy_residual_delay_ns, one column per "
                  "component)", fit_budget,
                  [0 for case in latency.cases
                   if case.legacy_residual_delay_ns == 0],
                  latency.attribution["matrix"],
                  latency.attribution["components"])

    plans = [DeployPlan(on, ns, svc["timings"], probe_cfg, svc["jitter"])
             for on in rings] if ns is not None and (a, b) in ring.arcs else []
    # a case's probe measures its link only if the case's path crosses it
    for i, plan in enumerate(plans[1:]):
        measured = latency.cases[i].id
        if measured not in plan.path.links:
            errors.append(f"latency.cases[{i}]: the service's path "
                          f"{'+'.join(plan.path.links)} leaves out "
                          f"latency.measured_link {measured}")
    req = conn.max_rt_latency_ns
    for i, plan in enumerate(plans if req is not None else ()):
        least = plan.shot.measured_rt_ns
        if req < least:
            where = f" in latency.cases[{i - 1}]" if i else ""
            errors.append(
                f"service.connectivity.max_rt_latency_us: {req / 1000:g}"
                f" us is below the {least / 1000:g} us a probe measures "
                f"without jitter over {'+'.join(plan.path.links)}{where}")
            break

    softfail = top.get("softfail")
    if softfail is not None:
        detector = softfail.pop("detector")
        # the service's path, which a ramp on any other link never reaches
        monitored = plans[0].path if plans else None
        cases = []
        for i, case in enumerate(softfail["cases"]):
            link, where = case.get("ramp_link"), f"softfail.cases[{i}].link"
            if link is not None and known(where, link, ring.links) \
                    and monitored is not None and link not in monitored.links:
                errors.append(f"{where}: {link} is not on the monitored path "
                              f"{'+'.join(monitored.links)}")
            cfg = detector
            if "drop_threshold_db" in case:
                cfg = DetectorConfig(
                    detector.sample_period_ns, detector.baseline_window,
                    case.pop("drop_threshold_db"),
                    detector.consecutive_required, detector.regression_window)
            horizon = {k: case[k] for k in ("rate_db_per_s", "snr_coupling")
                       if k in case}  # defaults are episode_horizon's
            _make(errors, f"softfail.cases[{i}].rate_db_per_s",
                  episode_horizon, cfg, softfail["signal"], **horizon)
            cases.append(SoftfailCase(case.pop("name", f"case{i + 1}"), cfg,
                                      case))
        softfail = Softfail(**{**softfail, "cases": cases})
    return svc["repetitions"], plans, latency, softfail


def scenario_from_dict(doc: dict, lenient: bool = False) -> Scenario:
    """Validate a parsed scenario document and read it into typed objects.

    Every wrong shape, type or value, missing key, unknown key (a warning
    when ``lenient``) and dangling name is reported by its key path in one
    ValidationError.  ``doc`` is kept unchanged as ``Scenario.raw``.
    """
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    errors: list[str] = []
    warnings: list[str] = []
    top = _read(doc, "", "", errors, warnings)
    experiment = doc.get("experiment")
    for section in SECTIONS[experiment] if experiment in EXPERIMENTS else ():
        if section != "setup" and section not in doc:
            errors.append(f"experiment {experiment!r} needs a {section!r} "
                          f"section")
    if not errors:
        sections = _sections(doc, top, errors)
    if errors:
        raise ValidationError("; ".join(errors))
    if warnings and not lenient:
        raise ValidationError("; ".join(warnings))
    return Scenario(experiment, top["seed"], doc, *sections,
                    warnings=warnings)


def load_scenario(path: Union[str, Path], lenient: bool = False) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(doc, lenient=lenient)


# ------------------------------------------------------------- world setup


def build_world(sc: Scenario, spawn_key: tuple[int, ...],
                plan: Optional[DeployPlan] = None,
                trace_sink: Optional[IO[str]] = None,
                keys: Optional[KeyTable] = None, where: str = "") -> SoftFailWorld:
    """Provision one isolated world and deploy ``plan``'s service in it, by
    default ``sc.plans[0]``, the scenario's on its own ring.  The world's
    streams lie below its root ``spawn_key`` in ``keys``, its runner's key
    table, by default a table of that one root; ``where`` names the world
    in the TwinError of a failed deployment."""
    kernel = Kernel(trace=trace_sink)
    stack = OrchestrationStack(plan or sc.plans[0], kernel,
                               keys or KeyTable(sc.seed, [spawn_key]), spawn_key)
    record = stack.request_network_service()
    kernel.run_to_end()
    if record.status is not ServiceStatus.ACTIVE:
        raise TwinError(f"{where}deployment ended {record.status.value}: "
                        f"{record.failure_reason}")
    return SoftFailWorld(kernel, stack, record)


# --------------------------------------------------------------- reporting


_FIXED_SPECS = [f".{d}f" for d in range(10)]  # _fmt's, built once
# the cells of a trace row: seconds since ramp start, SNR in dB and BER
_TRACE_CELLS = ("{:.1f}", "{:.4f}", "{:.3e}")


def _fmt(x: float, decimals: int) -> str:
    return format(x, _FIXED_SPECS[decimals])


class _Rows(Sequence):
    """Report rows kept as numbers, ``values``, one row of them per report
    row, formatted only when read or written; a slice reads as a list."""

    def __init__(self, values: Sequence[Sequence[float]]) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(len(self))[i]]
        return self._row(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class TraceRows(_Rows):
    """A soft-failure case's trace, (seconds, SNR dB, BER) a row, as report
    rows of text."""

    def _row(self, i: int) -> list[str]:
        return [cell.format(x) for cell, x in zip(_TRACE_CELLS, self.values[i])]


# the four KPIs of a KpiReport, in its order: each one's summary key, its
# field less "_ns", and its key in a setup row
_KPIS = [field[:-3] for field in KpiReport._fields]
_KPI_KEYS = [f"{kpi}_s" for kpi in _KPIS]


class KpiRows(_Rows):
    """The setup experiment's per-repetition rows: each world's four KPIs,
    in seconds and in ``KpiReport`` order.  Row i reads as the dict of its
    ``repetition``, i, and each KPI's key with its value to three
    decimals."""

    def _row(self, i: int) -> dict:
        rep = range(len(self.values))[i]
        return {"repetition": rep, **{key: _fmt(x, 3) for key, x in zip(
            _KPI_KEYS, self.values[rep])}}


_json_str = json.encoder.encode_basestring_ascii  # the C function
# floats, NaN and Infinity among them, true, false and null as json writes them
_json_scalar = json.JSONEncoder().encode


def _write_json(value, out: list[str], indent: str) -> None:
    """Append to ``out`` the text ``json.dumps(value, sort_keys=True,
    indent=2)`` gives ``value`` at the depth whose lines start with
    ``indent``, a newline and the depth's spaces."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):  # keys are unique
            # most values are plain strings or ints: in the key's piece
            if item.__class__ is str:
                out.append(f"{sep}{_json_str(key)}: {_json_str(item)}")
            elif item.__class__ is int:
                out.append(f"{sep}{_json_str(key)}: {item}")
            else:
                out.append(f"{sep}{_json_str(key)}: ")
                _write_json(item, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, KpiRows):
        # one template per row, its keys sorted; its cells are numbers
        inner, cell = indent + "  ", indent + "    "
        fields = sorted([(key, f'"{{{j}:.3f}}"') for j, key in enumerate(
            _KPI_KEYS)] + [("repetition", "{4}")])
        row = (inner + "{{" + cell + ("," + cell).join(
            f'"{key}": {field}' for key, field in fields) + inner + "}}").format
        out.append("[" + ",".join(row(*kpis, rep) for rep, kpis in enumerate(
            value.values)) + indent + "]" if value else "[]")
    elif isinstance(value, TraceRows):
        # one template per row; its cells are numbers, which need no escapes
        inner, cell = indent + "  ", indent + "    "
        row = (inner + "[" + cell + '"' + ('",' + cell + '"').join(_TRACE_CELLS)
               + '"' + inner + "]").format
        out.append("[" + ",".join(starmap(row, value.values)) + indent + "]"
                   if value else "[]")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    else:
        out.append(_json_scalar(value))


class RunReport(NamedTuple):
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
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)`` and a
        newline, written in one pass."""
        out: list[str] = []
        _write_json(self.to_dict(), out, "\n")
        out.append("\n")
        return "".join(out)


def _run_setup(sc: Scenario, trace_sink=None) -> dict:
    reps = sc.repetitions
    reports = []  # each world's KpiReport
    keys = KeyTable(sc.seed, [(rep,) for rep in range(reps)])
    for rep in range(reps):
        world = build_world(sc, (rep,), sc.plans[0], trace_sink, keys,
                            f"setup repetition {rep}: ")
        reports.append(world.stack.compute_kpis(world.record))
    # each KPI's column in seconds, and each world's row of them
    columns = [[ns / SECOND for ns in column] for column in zip(*reports)]
    kpis = list(zip(*columns))

    def stats(values: list[float]) -> dict:
        n = len(values)
        mean = sum(values) / n
        var = (sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        return {"mean_s": _fmt(mean, 3), "std_s": _fmt(var ** 0.5, 3),
                "min_s": _fmt(min(values), 3), "max_s": _fmt(max(values), 3)}

    return {
        "repetitions": reps,
        "per_repetition": KpiRows(kpis),
        "summary": dict(zip(_KPIS, map(stats, columns))),
    }


def _run_latency(sc: Scenario, trace_sink=None) -> dict:
    latency = sc.latency
    rows = []
    deltas = []
    keys = KeyTable(sc.seed, [(200 + c, r) for c in range(len(latency.cases))
                              for r in range(latency.repetitions)])
    for case_idx, (link, plan) in enumerate(zip(latency.cases, sc.plans[1:])):
        measured = []
        for rep in range(latency.repetitions):
            root = (200 + case_idx, rep)
            world = build_world(sc, root, plan, trace_sink, keys,
                                f"latency.cases[{case_idx}] repetition {rep}: ")
            # the probe stream draws only if the probe has jitter
            m = measure_round_trip(
                world.record.path, world.stack.state, plan.probe_cfg, plan.shot,
                SimRng(keys, root + (LATENCY_PROBE_STREAM,))
                if plan.probe_cfg.jitter_sigma_ns else None)
            measured.append(m.measured_rt_ns)
        estimated = plan.shot.estimated_rt_prop_ns
        mean_measured = sum(measured) / len(measured)
        delta = mean_measured - estimated
        # only clean rows inform the overhead budget
        if link.legacy_residual_delay_ns == 0:
            deltas.append(round(delta))
        rows.append({
            "link_length_km": _fmt(link.length_m / 1000.0, 4),
            "measured_us": _fmt(mean_measured / 1000.0, 3),
            "estimated_us": _fmt(estimated / 1000.0, 3),
            "delta_us": _fmt(delta / 1000.0, 3),
        })

    attribution = latency.attribution
    if attribution is not None:
        budget = fit_budget(deltas, attribution["matrix"],
                            attribution["components"])
    else:
        budget = budget_from_config(latency.probe, deltas)
    return {
        "repetitions": latency.repetitions,
        "cases": rows,
        "budget": {
            "components_us": {k: _fmt(v / 1000.0, 3)
                              for k, v in budget.components_ns.items()},
            "residual_rms_us": _fmt(budget.residual_rms_ns / 1000.0, 3),
        },
    }


def _run_softfail(sc: Scenario, trace_sink=None) -> dict:
    softfail = sc.softfail
    cases_out = []
    keys = KeyTable(sc.seed, [(100 + c, r) for c in range(len(softfail.cases))
                              for r in range(softfail.repetitions)])
    for idx, case in enumerate(softfail.cases):
        try:
            report = run_softfail_case(
                world_factory=lambda rep, idx=idx: build_world(
                    sc, (100 + idx, rep), sc.plans[0], trace_sink, keys,
                    f"repetition {rep}: "),
                repetitions=softfail.repetitions,
                noise_sigma_db=softfail.noise_sigma_db,
                detector_cfg=case.detector,
                model=softfail.signal,
                keep_trace=softfail.emit_trace,
                **case.episode)
        except TwinError as exc:
            raise TwinError(f"softfail.cases[{idx}] ({case.name}): "
                            f"{exc}") from exc
        entry = {
            "name": case.name,
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
        if softfail.emit_trace:
            entry["trace"] = TraceRows(report.trace)
        cases_out.append(entry)
    return {"repetitions": softfail.repetitions,
            "noise_sigma_db": _fmt(softfail.noise_sigma_db, 3),
            "cases": cases_out}


def run_scenario(sc: Scenario, trace_sink: Optional[IO[str]] = None) -> RunReport:
    """Execute the scenario's experiment and wrap results in a RunReport."""
    runs = {"setup": _run_setup, "latency": _run_latency,
            "softfail": _run_softfail}
    return RunReport(experiment=sc.experiment, seed=sc.seed, scenario=sc.raw,
                     results={name: runs[name](sc, trace_sink)
                              for name in SECTIONS[sc.experiment]})
