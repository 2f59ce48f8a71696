"""Outside-in tracer: spans around the twin's layers, with no change to src/.

``tracing(tracer)`` patches each traced callable where its caller looks it
up (a module attribute for functions, the class for methods) and restores
the originals on exit.  ``Kernel.schedule`` wraps every event action so the
time the kernel spends firing it is attributed to the ``__module__`` of the
callback (``controlplane.fire``, ``mda.fire``, ...).  Wrappers call the
original with the same arguments and pass the same event ``kind``, so a
traced run writes the same report bytes as an untraced one.

Spans stay in memory with their parents.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

import metrotwin.cli
import metrotwin.controlplane
import metrotwin.scenario
from metrotwin.mda import DegradationDetector
from metrotwin.optics import OpticalPlant, SignalModel
from metrotwin.scenario import RunReport
from metrotwin.simkernel import Kernel, SimRng

_now = time.perf_counter_ns

# The caller opens this span around each traced ``cli.main`` run; it must
# be the first span of a Tracer.
ROOT_SPAN = "cli.main"


class Tracer:
    """Span store for one traced operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span index, child ns]

    def enter(self, name: str) -> None:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0)
        self._stack.append([idx, 0])
        self.starts.append(_now())

    def exit(self) -> None:
        end = _now()
        idx, child_ns = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        name = self.names[idx]
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str) -> None:
        self.calls[name] += 1

    def write_spans(self, path: Path, header: str) -> None:
        """One line per span: id, parent id, name, start and end in ns."""
        base = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write(f"# {header}\n# id\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i] - base}\t{self.ends[i] - base}\n")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _layer_of(action) -> str:
    module = getattr(action, "__module__", None) or "other"
    return module.rpartition(".")[2]


def _traced_schedule(tracer: Tracer, schedule):
    def wrapper(kernel, action, at, kind=""):
        fire_name = _layer_of(action) + ".fire"

        def fire():
            tracer.enter(fire_name)
            try:
                action()
            finally:
                tracer.exit()

        tracer.enter("simkernel.schedule")
        try:
            return schedule(kernel, fire, at,
                            kind or getattr(action, "__name__", ""))
        finally:
            tracer.exit()
    return wrapper


# (owner, attribute, span name): calls under _SPANS open a span, calls under
# _COUNTS are only counted.
_SPANS = (
    (metrotwin.cli, "load_scenario", "scenario.load"),
    (metrotwin.cli, "run_scenario", "scenario.run"),
    (RunReport, "to_canonical_json", "scenario.render"),
    (metrotwin.scenario, "build_world", "scenario.build_world"),
    (metrotwin.scenario, "build_ring", "topology.build_ring"),
    (metrotwin.scenario, "measure_round_trip", "probe.measure_round_trip"),
    (metrotwin.controlplane, "measure_round_trip", "probe.measure_round_trip"),
    (metrotwin.scenario, "fit_budget", "probe.budget"),
    (metrotwin.scenario, "budget_from_config", "probe.budget"),
    (Kernel, "run_to_end", "simkernel.run_to_end"),
    (SimRng, "__init__", "simkernel.rng_init"),
    (OpticalPlant, "sample_telemetry", "optics.sample_telemetry"),
    (DegradationDetector, "ingest_sample", "mda.ingest_sample"),
    (DegradationDetector, "detect_degradation", "mda.detect_degradation"),
)
_COUNTS = (
    (SignalModel, "fail_snr_db", "optics.fail_snr_db"),
    (DegradationDetector, "__init__", "mda.episodes"),
)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Patch the traced callables for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name in _SPANS:
            patch(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
        for owner, attr, name in _COUNTS:
            patch(owner, attr, _counted(tracer, name, getattr(owner, attr)))
        patch(Kernel, "schedule", _traced_schedule(tracer, Kernel.schedule))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced ``cli.main`` run."""
    s, n = tr.self_ns, tr.calls
    fired = sum(c for name, c in n.items() if name.endswith(".fire"))

    def per_call_us(name: str) -> float:
        return s[name] / n[name] / 1e3 if n[name] else 0.0

    return {
        "simkernel.events_scheduled": n["simkernel.schedule"],
        "simkernel.events_fired": fired,
        "simkernel.schedule_us": per_call_us("simkernel.schedule"),
        "simkernel.self_us_per_event":
            s["simkernel.run_to_end"] / fired / 1e3 if fired else 0.0,
        "simkernel.rng_streams": n["simkernel.rng_init"],
        "simkernel.rng_init_us": per_call_us("simkernel.rng_init"),
        "topology.build_ring_s": s["topology.build_ring"] / 1e9,
        "scenario.build_world_self_s": s["scenario.build_world"] / 1e9,
        "scenario.worlds_built": n["scenario.build_world"],
        "controlplane.fire_self_s": s["controlplane.fire"] / 1e9,
        "controlplane.events_fired": n["controlplane.fire"],
        "optics.samples": n["optics.sample_telemetry"],
        "optics.fail_snr_db_calls": n["optics.fail_snr_db"],
        "optics.sample_telemetry_s": s["optics.sample_telemetry"] / 1e9,
        "mda.fire_self_s": s["mda.fire"] / 1e9,
        "mda.ingest_sample_s": s["mda.ingest_sample"] / 1e9,
        "mda.detect_degradation_s": s["mda.detect_degradation"] / 1e9,
        "mda.samples_per_episode":
            n["optics.sample_telemetry"] / n["mda.episodes"]
            if n["mda.episodes"] else 0.0,
        "probe.measure_round_trip_s": s["probe.measure_round_trip"] / 1e9,
        "probe.budget_s": s["probe.budget"] / 1e9,
        "scenario.run_self_s": s["scenario.run"] / 1e9,
        "scenario.render_s": s["scenario.render"] / 1e9,
        "scenario.load_s": s["scenario.load"] / 1e9,
        "cli.self_s": s[ROOT_SPAN] / 1e9,
    }
