"""Deterministic virtual-time event kernel.

All modules measure KPIs, latencies and detection times against the single
virtual clock provided here.  Time is an integer count of nanoseconds since
simulation start (64-bit range), so microsecond-scale probe latencies and
minute-scale attenuation ramps coexist without floating-point drift.

Randomness comes from numpy's Philox 4x64 counter-based bit generator.
Repetition and sub-module streams are split off the run seed by spawn keys,
and every draw equals numpy's ``Generator(Philox(SeedSequence(seed,
spawn_key)))``, so draws are reproducible independently of execution order:
the same (seed, spawn path) always yields the same values.

A stream reaches that generator's key in fewer numpy calls.  Its entropy
words are those ``SeedSequence`` assembles: the seed's, padded to the pool
size of 4, then each spawn label's, low word first; a split child extends its
parent's words by its own labels.  numpy's C ``SeedSequence`` mixes them into
the pool once.  The 2x64-bit Philox key is then the pool passed through
``SeedSequence.generate_state``'s output hash, replayed here over the four
32-bit pool words, and it reaches ``Philox`` through a seed sequence that
only returns it.  The mixing is numpy's own code and the hash is numpy's,
step for step, so the key, and with it every draw, is the one numpy derives.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, IO, Optional

import numpy as np

from .errors import RunawaySimulation, SchedulingInPast

SimTime = int  # nanoseconds since simulation start

MS = 1_000_000
SECOND = 1_000_000_000

DEFAULT_EVENT_CAP = 100_000_000


_M32 = 0xFFFFFFFF
# Philox's counter starts at 0; as an array it spares numpy's Python
# conversion of an int counter.  Philox copies it, so one serves every stream.
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _hash_constants() -> list[int]:
    """h_0 to h_4 of ``SeedSequence.generate_state``'s output hash: h_0 is
    numpy's INIT_B, and h_(i+1) = h_i * MULT_B mod 2**32."""
    h = [0x8B51F9DD]
    for _ in range(4):
        h.append(h[-1] * 0x58F38DED & _M32)
    return h


_H0, _H1, _H2, _H3, _H4 = _hash_constants()


def _words(labels: tuple[int, ...]) -> list[int]:
    """The 32-bit words, low first, that ``SeedSequence`` reads from each label."""
    words = []
    for n in labels:
        if n < 0:
            raise ValueError(f"seeds and spawn labels must be >= 0; got {n}")
        words.append(n & _M32)
        n >>= 32
        while n:
            words.append(n & _M32)
            n >>= 32
    return words


def _philox_key(words: list[int]) -> tuple[int, int]:
    """``SeedSequence(words).generate_state(2, np.uint64)``, the Philox key."""
    a, b, c, d = np.random.SeedSequence(
        np.array(words, np.uint32)).pool.tolist()
    # output word i: pool word i xor h_i, times h_(i+1), then xor-shifted
    a = (a ^ _H0) * _H1 & _M32
    b = (b ^ _H1) * _H2 & _M32
    c = (c ^ _H2) * _H3 & _M32
    d = (d ^ _H3) * _H4 & _M32
    # the four 32-bit outputs read as two little-endian 64-bit words
    return (a ^ a >> 16 | (b ^ b >> 16) << 32,
            c ^ c >> 16 | (d ^ d >> 16) << 32)


@functools.cache
def _fixed_key() -> type:
    """The seed sequence that hands ``Philox`` a key derived already.

    Made on first use: subclassing numpy's ``ISeedSequence`` imports
    ``numpy.random``, which would otherwise load with the program.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: tuple[int, int]):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its two 64-bit key words and reads them by
            # index, so a tuple of ints spares building an array
            return self.key

    return FixedKey


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
        self.spawn_key = tuple(map(int, spawn_key))
        self._gen: Optional[np.random.Generator] = None
        self._entropy: Optional[list[int]] = None

    def split(self, *labels: int) -> "SimRng":
        child = SimRng(self.seed, self.spawn_key + labels)
        # the parent's entropy, extended by the child's own labels
        child._entropy = self._entropy_words() + _words(
            child.spawn_key[len(self.spawn_key):])
        return child

    def _entropy_words(self) -> list[int]:
        """The entropy numpy assembles for ``SeedSequence(seed, spawn_key)``:
        the seed's words padded to the pool size of 4, then the key's."""
        if self._entropy is None:
            words = _words((self.seed,))
            words += [0] * (4 - len(words))
            self._entropy = words + _words(self.spawn_key)
        return self._entropy

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(
                _fixed_key()(_philox_key(self._entropy_words())),
                counter=_ZERO_COUNTER))
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

    def run_to_end(self) -> SimTime:
        """Fire every queued event in order, including those queued while
        firing; returns the fire time of the last (now() if none)."""
        while self._heap:
            fire_at, sequence, action, kind = heapq.heappop(self._heap)
            self._now = fire_at
            self._fired += 1
            if self._fired > self.event_cap:
                raise RunawaySimulation(
                    f"fired-event count exceeded cap {self.event_cap}")
            if self.trace is not None:
                self.trace.write(f"{fire_at},{sequence},{kind}\n")
            action()
        return self._now
