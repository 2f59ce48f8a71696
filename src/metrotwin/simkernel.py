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

``philox_keys`` replays ``SeedSequence``'s key derivation in numpy arithmetic
over a row of entropy words per stream, so a runner keys all its worlds'
streams in one pass, and a stream missing from its world's table is keyed
alone by the same replay; ``Philox`` takes each key as it is.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Callable, IO, Optional, Sequence

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
# SeedSequence's (INIT, MULT) hash constants: pool mixing, output hash
_MIX_HASH, _OUT_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)


def _hasher(const: int, mult: int) -> Callable:
    """numpy's hashmix from hash constant ``const`` on, over uint64 arrays
    of 32-bit words; each call advances the constant by ``mult``."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _words(labels: tuple[int, ...]) -> list[int]:
    """The 32-bit words, low first, that ``SeedSequence`` reads from each label."""
    if labels and min(labels) < 0:
        raise ValueError(f"seeds and spawn labels must be >= 0; got {min(labels)}")
    return [n >> s & _M32 for n in labels
            for s in range(0, max(n.bit_length(), 1), 32)]


def philox_keys(words) -> np.ndarray:
    """Each row's Philox key, ``SeedSequence(row).generate_state(2,
    np.uint64)``, as an (n, 2) uint64 array, for an (n, m) array of entropy
    words, m >= 4: the seed's, padded to the pool size of 4, then the key's."""
    cols = list(np.array(words, np.uint32, ndmin=2).T.astype(np.uint64))
    hashmix = _hasher(*_MIX_HASH)

    def mix(x, y):
        r = (x * 0xCA01F9DD - y * 0x4973F715) & _M32  # MIX_MULT_L, MIX_MULT_R
        return r ^ r >> 16
    pool = [hashmix(w) for w in cols[:4]]
    # every pool word into every other, then each further word into all
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(cols[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(2, np.uint64): four output words as two 64-bit ones
    a, b, c, d = map(_hasher(*_OUT_HASH), pool)
    return np.stack((a | b << 32, c | d << 32), axis=1)


def stream_keys(seed: int, roots: list[tuple[int, ...]],
                paths: list[tuple[int, ...]]) -> np.ndarray:
    """The Philox key of stream ``roots[i] + paths[j]`` at [i, j], by path;
    the roots hold one count of labels below 2**32, as a runner's do."""
    n, head = len(roots), _words((seed,))
    head += [0] * (4 - len(head))
    rows = np.hstack([np.full((n, len(head)), head, np.uint32),
                      np.array(roots, np.uint32).reshape(n, -1 if n else 0)])
    keys = np.empty((n, len(paths), 2), np.uint64)
    for j, tail in enumerate(map(_words, paths)):
        keys[:, j] = philox_keys(np.hstack(
            [rows, np.full((n, len(tail)), tail, np.uint32)]))
    return keys


@functools.cache
def _fixed_key() -> type:
    """The seed sequence that hands ``Philox`` a key derived already.

    Made on first use: subclassing numpy's ``ISeedSequence`` imports
    ``numpy.random``, which would otherwise load with the program.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: Sequence[int]):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its two 64-bit key words and reads them by
            # index, so a pair of ints spares building an array
            return self.key

    return FixedKey


class SimRng:
    """Splittable deterministic RNG stream.

    Wraps ``numpy.random.Philox`` (counter-based, 4x64).  ``split`` derives an
    independent child stream from integer labels; the (seed, spawn path)
    pair fully determines every draw.  A stream builds its generator on its
    first draw, so a stream that is only split, or draws with zero spread,
    builds none.  ``keys``, which splits pass on, maps spawn keys to Philox
    keys derived already (``stream_keys``); it is only read, and a stream
    it lacks is keyed alone.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = (), keys=None):
        self.seed = int(seed)
        self.spawn_key = tuple(map(int, spawn_key))
        self._keys = keys or {}
        self._gen: Optional[np.random.Generator] = None

    def split(self, *labels: int) -> "SimRng":
        return SimRng(self.seed, self.spawn_key + labels, self._keys)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            key = self._keys.get(self.spawn_key) or stream_keys(
                self.seed, [()], [self.spawn_key])[0, 0].tolist()
            self._gen = np.random.Generator(np.random.Philox(
                _fixed_key()(key), counter=_ZERO_COUNTER))
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
