"""Emulated active 100G round-trip latency probe.

A measurement is propagation over the path plus fixed per-element overheads
(probe electronics, the aggregation-switch pair, optical path devices) plus
any lumped legacy residual configured on a link.  ``fit_budget`` decomposes
deltas (measured minus propagation) into per-component overheads by least
squares over an explicit attribution matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import PathNotOperational, RankDeficient, Underdetermined
from .optics import rt_propagation_delay
from .simkernel import SimRng
from .topology import OpticalPath, RingState, RingTopology, TransponderState


class ProbeConfig(NamedTuple):
    probe_overhead_ns: int = 840
    switch_overhead_ns: int = 1290  # per traversal pair
    optical_device_overhead_ns: int = 13100  # per path
    jitter_sigma_ns: int = 0

    def total_overhead_ns(self) -> int:
        return (self.probe_overhead_ns + self.switch_overhead_ns
                + self.optical_device_overhead_ns)


class LatencyMeasurement(NamedTuple):
    link_length_m: float
    measured_rt_ns: int
    estimated_rt_prop_ns: int

    @property
    def delta_ns(self) -> int:
        return self.measured_rt_ns - self.estimated_rt_prop_ns


class BudgetReport(NamedTuple):
    components_ns: dict[str, float]
    residual_rms_ns: float


def estimate_rt_propagation(length_m: float, group_index: float) -> int:
    """Round-trip propagation only; alias kept for report symmetry."""
    return rt_propagation_delay(length_m, group_index)


def noiseless_round_trip(path: OpticalPath, ring: RingTopology,
                         cfg: ProbeConfig) -> LatencyMeasurement:
    """A probe shot over ``path`` on ``ring`` without jitter.

    measured = propagation + legacy residuals + configured overheads.
    """
    prop = 0
    residual = 0
    length = 0.0
    for link_id in path.links:
        link = ring.links[link_id]
        prop += rt_propagation_delay(link.length_m, link.group_index)
        residual += link.legacy_residual_delay_ns
        length += link.length_m
    return LatencyMeasurement(
        link_length_m=length,
        measured_rt_ns=prop + residual + cfg.total_overhead_ns(),
        estimated_rt_prop_ns=prop)


def measure_round_trip(path: OpticalPath, state: RingState, cfg: ProbeConfig,
                       shot: LatencyMeasurement, rng: Optional[SimRng] = None
                       ) -> LatencyMeasurement:
    """One probe shot over an operational path: ``shot``, the path's
    noiseless round trip as ``noiseless_round_trip`` gives it, plus jitter.
    A jittered shot never measures less than its propagation delay."""
    if path.channel is None:
        raise PathNotOperational("path has no channel assigned")
    for tp_id in (path.source, path.destination):
        if state.transponders[tp_id].state is not TransponderState.OPERATIONAL:
            raise PathNotOperational(f"transponder {tp_id} not operational")

    if cfg.jitter_sigma_ns and rng is not None:
        shot = LatencyMeasurement(
            shot.link_length_m,
            max(shot.estimated_rt_prop_ns, shot.measured_rt_ns
                + round(rng.normal(0.0, cfg.jitter_sigma_ns))),
            shot.estimated_rt_prop_ns)
    return shot


def fit_budget(deltas_ns: Sequence[float],
               attribution: Sequence[Sequence[float]],
               component_names: Sequence[str]) -> BudgetReport:
    """Least-squares split of deltas (measured minus propagation, ns; a
    LatencyMeasurement gives its ``delta_ns``) into per-component overheads.

    ``attribution[i][j]`` counts how many times component j appears in
    delta i.  Requires at least as many deltas as components and a
    full-column-rank attribution.
    """
    a = np.asarray(attribution, dtype=float)
    if a.ndim != 2 or a.shape[1] != len(component_names):
        raise ValueError("attribution shape does not match component names")
    if a.shape[0] != len(deltas_ns):
        raise ValueError("attribution rows must match measurement count")
    if a.shape[0] < a.shape[1]:
        raise Underdetermined(f"{a.shape[0]} measurements for {a.shape[1]} components")
    if np.linalg.matrix_rank(a) < a.shape[1]:
        raise RankDeficient("attribution columns are linearly dependent")

    deltas = np.array([getattr(d, "delta_ns", d) for d in deltas_ns], float)
    x, _, _, _ = np.linalg.lstsq(a, deltas, rcond=None)
    resid = deltas - a @ x
    rms = float(math.sqrt(np.mean(resid ** 2))) if len(resid) else 0.0
    return BudgetReport(components_ns=dict(zip(component_names, map(float, x))),
                        residual_rms_ns=rms)


def budget_from_config(cfg: ProbeConfig, deltas_ns: Sequence[int]) -> BudgetReport:
    """Echo the configured components; residual RMS against the given deltas."""
    comps = {
        "probe": float(cfg.probe_overhead_ns),
        "aggregation_switches": float(cfg.switch_overhead_ns),
        "optical_path_devices": float(cfg.optical_device_overhead_ns),
    }
    total = sum(comps.values())
    if deltas_ns:
        rms = math.sqrt(sum((d - total) ** 2 for d in deltas_ns) / len(deltas_ns))
    else:
        rms = 0.0
    return BudgetReport(components_ns=comps, residual_rms_ns=rms)
