"""Deterministic virtual-time event kernel.

All modules measure KPIs, latencies and detection times against the single
virtual clock provided here.  Time is an integer count of nanoseconds since
simulation start (64-bit range), so microsecond-scale probe latencies and
minute-scale attenuation ramps coexist without floating-point drift.

Randomness comes from numpy's Philox 4x64 counter-based bit generator.
Repetition and sub-module streams are split off the run seed by spawn keys,
seeded exactly as numpy's ``SeedSequence(seed, spawn_key=...)`` would, so
draws are reproducible independently of execution order: the same (seed,
spawn path) always yields the same values.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, IO, Optional

import numpy as np

from .errors import RunawaySimulation, SchedulingInPast

SimTime = int  # nanoseconds since simulation start

MS = 1_000_000
SECOND = 1_000_000_000

DEFAULT_EVENT_CAP = 100_000_000


def _words(n: int) -> list[int]:
    """The 32-bit words, low first, that ``SeedSequence`` reads from ``n``."""
    if n < 0:
        raise ValueError(f"seeds and spawn labels must be >= 0; got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


class SimRng:
    """Splittable deterministic RNG stream.

    Wraps ``numpy.random.Philox`` (counter-based, 4x64).  ``split`` derives an
    independent child stream from integer labels; the (seed, spawn path)
    pair fully determines every draw.  A stream builds its generator on its
    first draw, so a stream that is only split, or draws with zero spread,
    builds none.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._gen: Optional[np.random.Generator] = None

    def split(self, *labels: int) -> "SimRng":
        return SimRng(self.seed, self.spawn_key + labels)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            # the entropy numpy assembles for SeedSequence(seed, spawn_key):
            # the seed's words padded to the pool size of 4, then the key's
            words = _words(self.seed)
            words += [0] * (4 - len(words))
            for label in self.spawn_key:
                words += _words(label)
            seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def normal(self, mu: float = 0.0, sigma: float = 1.0,
               size: Optional[int] = None):
        """One draw as a float, or ``size`` draws as an array.

        ``size=k`` yields exactly the next k single draws, so a stream may be
        consumed in blocks.  ``sigma == 0`` draws nothing.
        """
        if sigma == 0.0:
            return mu if size is None else np.full(size, mu)
        if size is None:
            return float(self._generator().normal(mu, sigma))
        return self._generator().normal(mu, sigma, size)

    def lognormal_mean_cv(self, mean: float, cv: float) -> float:
        """Lognormal draw parameterised by its mean and coefficient of variation."""
        if cv == 0.0 or mean == 0.0:
            return mean
        sigma2 = math.log1p(cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return float(self._generator().lognormal(mu, math.sqrt(sigma2)))


class Kernel:
    """Single-threaded discrete-event scheduler over virtual nanoseconds.

    Events with equal ``fire_at`` fire in insertion order.  One instance is
    strictly single-threaded; separate instances share nothing.
    """

    def __init__(self, event_cap: int = DEFAULT_EVENT_CAP,
                 trace: Optional[IO[str]] = None):
        self._now: SimTime = 0
        # (fire_at, sequence, action, kind); the sequence breaks time ties
        self._heap: list[tuple[SimTime, int, Callable[[], None], str]] = []
        self._next_seq = 0
        self._fired = 0
        self.event_cap = event_cap
        self.trace = trace  # file-like; one line "fire_at_ns,sequence,kind" per fired event

    def now(self) -> SimTime:
        return self._now

    def idle(self) -> bool:
        """True when no event is queued."""
        return not self._heap

    def schedule(self, action: Callable[[], None], at: SimTime,
                 kind: str = "") -> None:
        """Enqueue ``action`` to run at virtual time ``at``."""
        if at < self._now:
            raise SchedulingInPast(f"schedule at {at} ns < now {self._now} ns")
        heapq.heappush(self._heap, (at, self._next_seq, action,
                                    kind or getattr(action, "__name__", "")))
        self._next_seq += 1

    def schedule_in(self, delay: SimTime, action: Callable[[], None],
                    kind: str = "") -> None:
        self.schedule(action, self._now + delay, kind=kind)

    def _fire_next(self) -> SimTime:
        fire_at, sequence, action, kind = heapq.heappop(self._heap)
        self._now = fire_at
        self._fired += 1
        if self._fired > self.event_cap:
            raise RunawaySimulation(
                f"fired-event count exceeded cap {self.event_cap}")
        if self.trace is not None:
            self.trace.write(f"{fire_at},{sequence},{kind}\n")
        action()
        return fire_at

    def run_until(self, horizon: SimTime) -> int:
        """Fire every event with fire_at <= horizon; clock ends at horizon."""
        if horizon < self._now:
            raise SchedulingInPast(f"horizon {horizon} ns < now {self._now} ns")
        fired = 0
        while self._heap and self._heap[0][0] <= horizon:
            self._fire_next()
            fired += 1
        self._now = horizon
        return fired

    def run_to_end(self) -> SimTime:
        """Drain the queue; returns the fire time of the last event (now() if empty)."""
        last = self._now
        while self._heap:
            last = self._fire_next()
        return last
