"""Deterministic virtual-time event kernel.

All modules measure KPIs, latencies and detection times against the single
virtual clock provided here.  Time is an integer count of nanoseconds since
simulation start (64-bit range), so microsecond-scale probe latencies and
minute-scale attenuation ramps coexist without floating-point drift.

Randomness comes from numpy's Philox 4x64 counter-based bit generator.
A stream is named by its spawn key: a world's root below the run seed, then
a path.  Every draw equals numpy's ``Generator(Philox(SeedSequence(seed,
spawn_key)))``, so draws are reproducible independently of execution order:
the same (seed, spawn key) always yields the same values.

``philox_keys`` replays ``SeedSequence``'s key derivation in numpy arithmetic
over a row of entropy words per stream, so a runner's ``KeyTable`` keys
stream paths for all its worlds' roots in one pass, on their first draw;
``philox_key`` does the same for a single row in Python ints.  The streams
of one table take turns on its one ``Philox`` generator, built from
``Philox(0)``: every draw takes a turn, which sets the generator's key to
the stream's.  A world's deployment streams, which ``KeyTable.draws`` asks
for, are drawn for every root on the first read, one turn a stream and a
root, and each world reads its row of durations once; a ``SimRng`` stream,
made only where a stream draws otherwise, draws when it is asked.
"""

from __future__ import annotations

import functools
import itertools
import math
from heapq import heappop, heappush
from typing import Callable, IO, Optional

import numpy as np

from .errors import RunawaySimulation, SchedulingInPast

SimTime = int  # nanoseconds since simulation start

MS = 1_000_000
SECOND = 1_000_000_000

DEFAULT_EVENT_CAP = 100_000_000


_M32 = 0xFFFFFFFF
# SeedSequence's (INIT, MULT) hash constants: pool mixing, output hash
_MIX_HASH, _OUT_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)


def _hasher(const: int, mult: int) -> Callable:
    """numpy's hashmix from hash constant ``const`` on, over 32-bit words in
    uint64 arrays or Python ints; each call advances the constant by ``mult``."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _words(labels: tuple[int, ...]) -> list[int]:
    """The 32-bit words, low first, that ``SeedSequence`` reads from each label."""
    labels = list(map(int, labels))
    if labels and min(labels) < 0:
        raise ValueError(f"seeds and spawn labels must be >= 0; got {min(labels)}")
    return [n >> s & _M32 for n in labels
            for s in range(0, max(n.bit_length(), 1), 32)]


def _mix(x, y):
    r = (x * 0xCA01F9DD - y * 0x4973F715) & _M32  # MIX_MULT_L, MIX_MULT_R
    return r ^ r >> 16


@functools.lru_cache(maxsize=64)
def _seed_pool(head: tuple[int, ...]) -> tuple[int, ...]:
    """``SeedSequence``'s pool after its first four entropy words, ``head``,
    in Python ints: each hashed in, then each mixed into every other.  They
    come from the seed, so every stream of a seed shares it.  It hashes 16
    times."""
    hashmix = _hasher(*_MIX_HASH)
    pool = [hashmix(w) for w in head]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    return tuple(pool)


# The pool hash's constant after ``_seed_pool``'s 16 hashes
_MIX_AFTER_POOL = _MIX_HASH[0] * pow(_MIX_HASH[1], 16, 1 << 32) & _M32


def _state_words(pool: list, words) -> list:
    """``SeedSequence``'s four 32-bit output words: each entropy word past
    the first four mixed into every word of ``pool``, in place, then the
    pool hashed out."""
    hashmix = _hasher(_MIX_AFTER_POOL, _MIX_HASH[1])
    for w, dst in itertools.product(words, range(4)):
        pool[dst] = _mix(pool[dst], hashmix(w))
    return list(map(_hasher(*_OUT_HASH), pool))


def philox_keys(words) -> np.ndarray:
    """Each row's Philox key, ``SeedSequence(row).generate_state(2,
    np.uint64)``, as an (n, 2) uint64 array, for an (n, m) array of entropy
    words, n >= 1 and m >= 4, whose rows share their first four, the seed's
    padded to the pool size of 4: so the pool starts from ``_seed_pool``,
    in Python ints, and only the words past those four are columns."""
    rows = np.array(words, np.uint32, ndmin=2)
    a, b, c, d = _state_words(list(_seed_pool(tuple(rows[0, :4].tolist()))),
                              list(rows[:, 4:].T.astype(np.uint64)))
    # generate_state(2, np.uint64): four output words as two 64-bit ones,
    # ints if every row is the seed's alone
    keys = np.empty((len(rows), 2), np.uint64)
    keys[:, 0], keys[:, 1] = a | b << 32, c | d << 32
    return keys


def philox_key(words: list[int]) -> list[int]:
    """``philox_keys`` of one row, in Python ints: for a single stream the
    same arithmetic on ints costs less than on one-element arrays, and the
    seed's part of it is done once per seed."""
    a, b, c, d = _state_words(list(_seed_pool(tuple(words[:4]))), words[4:])
    return [a | b << 32, c | d << 32]


def stream_keys(seed: int, roots: list[tuple[int, ...]],
                paths: list[tuple[int, ...]]) -> list[list[int]]:
    """The Philox keys of the streams ``root + path``, one pair of ints per
    stream, root by root and each root's in ``paths`` order; the roots hold
    one count of labels below 2**32, as a runner's do.  Paths of one word
    count are keyed in one pass, as a deployment plan's are."""
    n, head, tails = len(roots), _words((seed,)), list(map(_words, paths))
    head += [0] * (4 - len(head))
    if n < 2:
        return [philox_key(head + _words(root) + tail)
                for root in roots for tail in tails]
    if len(set(map(len, tails))) > 1:
        by_path = [stream_keys(seed, roots, [path]) for path in paths]
        return [keys[i] for i in range(n) for keys in by_path]
    m = len(tails)
    return philox_keys(np.hstack([
        np.full((n * m, len(head)), head, np.uint32),
        np.repeat(np.array(roots, np.uint32), m, axis=0),
        np.tile(np.array(tails, np.uint32), (n, 1))])).tolist()


class KeyTable:
    """The streams below one runner's world roots: a stream's first use
    settles it for every root, and each world reads its own row.  A
    ``SimRng`` path's column holds each root's key, from one
    ``stream_keys`` pass; a world's deployment streams, which ``draws``
    reads, are drawn for every root on the first read, and each root's row
    holds its durations.

    The table's streams take turns on one generator, built on the first
    draw from ``Philox(0)``: every turn, the first included, sets its key to
    the drawing stream's, so the table builds one ``Philox`` at most.
    """

    def __init__(self, seed: int, roots: list[tuple[int, ...]]):
        self.seed, self.roots, self._columns = seed, roots, {}
        # by the streams read: a row's length, and the rows end to end
        self._rows: dict[tuple, tuple[int, list[SimTime]]] = {}
        self._drawn: dict[tuple[int, ...], tuple] = {}  # a path's durations
        self.row = {root: i for i, root in enumerate(roots)}  # root -> row
        self._width = len(roots[0]) if roots else 0
        self._shared: Optional[np.random.Generator] = None
        # a fresh Philox's state in Python ints, whose key each turn swaps
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0] * 4, "key": None},
                       "buffer": [0] * 4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def key(self, spawn_key: tuple[int, ...]) -> list[int]:
        """The key of the stream at ``spawn_key``: one of the roots, then a path."""
        root, path = spawn_key[:self._width], spawn_key[self._width:]
        column = self._columns.get(path)
        if column is None:
            column = self._columns[path] = stream_keys(
                self.seed, self.roots, [path])
        return column[self.row[root]]

    def take_turn(self, key: list[int]) -> np.random.Generator:
        """The shared generator, as ``Philox`` builds it from ``key``."""
        if self._shared is None:
            self._shared = np.random.Generator(np.random.Philox(0))
        self._state["state"]["key"] = key
        self._shared.bit_generator.state = self._state
        return self._shared

    def draws(self, root: tuple[int, ...], streams: tuple) -> list[SimTime]:
        """The row at ``root`` of ``streams``, a world's deployment streams:
        each stream's durations in ns, stream after stream, in draw order.

        A stream is a (path, durations) pair, hashable as a tuple: a
        ``(mu, sigma)`` duration is a lognormal draw in seconds, rounded,
        and any other is kept as it is; a stream whose path is None draws
        nothing.  The first read of ``streams`` draws each of their paths
        for every root, keyed in one ``stream_keys`` pass, each in one turn
        from its start.  A read that asks other durations of a path drawn
        before raises ValueError."""
        drawn = self._rows.get(streams)
        if drawn is None:
            drawing = [stream for stream in streams if stream[0] is not None]
            for path, durations in drawing:
                if self._drawn.get(path, durations) != durations:
                    raise ValueError(
                        f"stream path {path} was drawn with durations "
                        f"{self._drawn[path]}, not {durations}")
            self._drawn.update(drawing)
            keys = iter(stream_keys(self.seed, self.roots,
                                    [path for path, _ in drawing])
                        if drawing else ())
            rows: list[SimTime] = []  # the rows end to end
            for _ in self.roots:
                for path, durations in streams:
                    if path is None:
                        rows += durations
                        continue
                    gen = self.take_turn(next(keys))
                    rows += [round(gen.lognormal(*d) * SECOND)
                             if d.__class__ is tuple else d for d in durations]
            drawn = self._rows[streams] = (
                sum(len(durations) for _, durations in streams), rows)
        n, rows = drawn
        start = self.row[root] * n
        return rows[start:start + n]


class SimRng:
    """The stream of ``keys`` at ``spawn_key``, one of the table's roots
    then a path, for a stream that draws when it is asked.

    Each draw takes a turn on the table's generator and skips the standard
    normals the stream drew before, so a stream's n-th draw re-draws its
    n - 1 earlier ones; every stream of the twin draws once, but a
    soft-failure episode's noise when no sample of its first draw crosses.
    """

    __slots__ = ("keys", "spawn_key", "_drawn")

    def __init__(self, keys: KeyTable, spawn_key: tuple[int, ...]):
        self.keys, self.spawn_key, self._drawn = keys, spawn_key, 0

    def normal(self, mu: float = 0.0, sigma: float = 1.0,
               size: Optional[int] = None):
        """One draw as a float, or ``size`` draws as an array.

        ``size=k`` yields exactly the next k single draws, so a stream may be
        consumed in blocks.  ``sigma == 0`` draws nothing and takes no turn;
        any other draw takes a turn and skips the stream's earlier draws, as
        ``Generator.normal(mu, sigma)`` is ``mu + sigma * standard_normal()``.
        """
        if sigma == 0.0:
            return mu if size is None else np.full(size, mu)
        gen = self.keys.take_turn(self.keys.key(self.spawn_key))
        gen.standard_normal(self._drawn)  # the stream's earlier draws
        if size is None:
            self._drawn += 1
            return float(gen.normal(mu, sigma))
        self._drawn += size
        return gen.normal(mu, sigma, size)


def lognormal_params(mean: float, cv: float) -> tuple[float, float]:
    """The (mu, sigma) of the lognormal with this mean and coefficient of
    variation."""
    sigma2 = math.log1p(cv * cv)
    return math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)


class Kernel:
    """Single-threaded discrete-event scheduler over virtual nanoseconds.

    Events with equal ``fire_at`` fire in insertion order.  An event's label
    (``kind``) is its trace text, or the action's ``__name__`` if empty.
    The clock is the attribute ``now``, which only firing advances; an event
    enters the queue only through ``schedule``.  One instance is strictly
    single-threaded; separate instances share nothing.
    """

    __slots__ = ("now", "_heap", "_next_seq", "_fired", "event_cap", "trace")

    def __init__(self, event_cap: int = DEFAULT_EVENT_CAP,
                 trace: Optional[IO[str]] = None):
        self.now: SimTime = 0
        # (fire_at, sequence, action, kind): the sequence is unique, so it
        # breaks time ties and no action or label is ever compared
        self._heap: list[tuple[SimTime, int, Callable[[], None], str]] = []
        self._next_seq = 0
        self._fired = 0
        self.event_cap = event_cap
        self.trace = trace  # file-like; one line "fire_at_ns,sequence,kind" per fired event

    def idle(self) -> bool:
        """True when no event is queued."""
        return not self._heap

    def schedule(self, action: Callable[[], None], at: SimTime,
                 kind: str = "") -> None:
        """Enqueue ``action`` to run at virtual time ``at``."""
        if at < self.now:
            raise SchedulingInPast(f"schedule at {at} ns < now {self.now} ns")
        heappush(self._heap, (at, self._next_seq, action, kind))
        self._next_seq += 1

    def run_to_end(self) -> SimTime:
        """Fire every queued event in order, including those queued while
        firing; returns the fire time of the last (``now`` if none)."""
        heap, trace, cap = self._heap, self.trace, self.event_cap
        fired = self._fired
        try:
            while heap:
                fire_at, sequence, action, kind = heappop(heap)
                self.now = fire_at
                fired += 1
                if fired > cap:
                    raise RunawaySimulation(
                        f"fired-event count exceeded cap {cap}")
                if trace is not None:
                    trace.write(f"{fire_at},{sequence},"
                                f"{kind or getattr(action, '__name__', '')}\n")
                action()
        finally:
            self._fired = fired
        return self.now
