"""Deterministic random streams and the engine that steps every simulation.

Every stochastic routine in the package draws from a ``numpy`` PCG64
generator obtained from a master seed, a component label and a replica
index.  ``_entropy`` alone turns the triple into 32-bit entropy words (the
seed mod 2^64, a hash of label and index, the index) and numpy's
SeedSequence algorithm hashes them into a PCG64 state, so that

* the same triple always yields the same stream, on any platform,
* distinct labels or indices yield statistically independent streams,
* ensembles can hand replica ``i`` its own stream without coordination.

``StreamKey.generator`` (and ``generator``) build one stream by handing the
words to numpy's own ``SeedSequence``; they are the reference.
``generators`` builds a batch: it runs the SeedSequence algorithm (hash the
words into a 4-word pool, cross-mix it, hash out the PCG64 state) once over
all keys as uint32 arrays, so each generator starts in the same PCG64 state
as the reference, at a fraction of the per-stream cost.  ``run_streams``
uses it.

``run_streams`` is the package's loop over time steps for ensembles: per
step, a kernel advances M replicas with a noise row holding each one's next
draw.  Replica i reads only stream i, in order, and shares no arithmetic
with the others, so no output depends on the noise block size or on worker
counts.  A run given a per-replica scalar step (every 1-d marginal run)
hands its last ``_SCALAR_TAIL`` replicas to it, where a vector step's
fixed cost of some twenty to sixty numpy calls outweighs their
arithmetic.  The hand-off falls at the end of a noise block, once the
block has used every value it drew: each replica then finishes alone in
plain floats on its generator's next draws, so it still reads its stream
in order.

``checkpoint_slice`` is the job of every fixed-length ensemble, the urn's
and the Euler-Maruyama one: a model gives M replicas' start state, kernel,
value map and draw, and the job keeps their values at the checkpoint
steps.  The other job, of the 1-d marginal ensembles, is
``wright_fisher._exit_slice``'s paths stopped on leaving an interval.

``run_path`` is the loop of a single path: ``x = step(x, noise)`` in plain
floats (a float, or a list of floats for a state wider than one) on the
key's generator, drawing the chunks the scalar tail draws and writing the
path into its array once per chunk.  Each model's plain-float step repeats
its vector kernel's operations in the same order, so a single path equals
ensemble row i bit for bit.  The urn and Euler-Maruyama ensembles keep
the vector kernel: M replicas in plain floats cost about M single paths,
more than one of their vector steps from about M = 10.

A noise block is stored replica-last, ``(steps,) + shape + (M,)``, and the
kernel is handed each step's row as an ``(M,) + shape`` view of it: the
shapes are the replica-first ones, while a pass over one draw index reads
a contiguous row of M values.  ``_BLOCK_VALUES`` is the noise budget of a
whole run, whatever its worker count, and ``_CALL_VALUES`` caps the values
of one draw call, whose fixed cost (about 0.8 us) that many values pay
back.  For a block row of ``width`` values a call fills blocks of
``budget // width`` steps, at least 1 and at most
``S = max(1, _CALL_VALUES // prod(shape))``, so each replica's draw fills
at most ``_CALL_VALUES`` values (one step's, if a step draws more).  It
holds one noise buffer, allocated once after the n = 0 observer at the
largest block it can fill, ``min(budget, S * width)`` values (at least one
row, at most the whole run): replicas that retire only narrow later
blocks, so every block fits in it.  Each replica's draw method is bound
once per call.

``map_replicas`` is the package's only process pool: it runs a per-slice
job on contiguous slices of an ensemble's stream keys and joins the results
along the replica axis, so row i still reads stream i.  Each slice gets its
share of the budget, ``_BLOCK_VALUES * len(slice) // len(keys)``, so each
of its replicas draws chunks of the length a one-process run gives it, and
a split run holds at most about ``_BLOCK_VALUES`` values of noise over all
its processes, as a one-process run does.  The calling process
runs the first slice itself while a pool of ``workers - 1`` processes runs
the others; it is the only process whose module globals a tracer has
wrapped, and it starts one process fewer.  Every ensemble's default worker
count (``workers=None``) is resolved here, in ``_default_workers``: the CPUs
this process may use, as many as each worker gets at least
``_SPLIT_VALUES`` noise values, and one inside a daemonic process, which
cannot start a pool.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError

_U64 = (1 << 64) - 1


def generator(seed: int, label: str = "main", index: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, label, index) stream."""
    return StreamKey(seed, label, index).generator()


@dataclass(frozen=True)
class StreamKey:
    """Record of which stream produced a stochastic artifact."""

    seed: int
    label: str = "main"
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(_entropy(self), np.uint32))))

    def as_dict(self) -> dict:
        return {"seed": self.seed, "label": self.label, "index": self.index}


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), default pool of 4 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = (1 << 32) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 1) uint32 columns for n successive hash calls: call j xors h_j, then multiplies by h_{j+1}."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _M32)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)  # 4 uint64 = 8 uint32 state words
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _words(n: int) -> list[int]:
    """numpy's split of a non-negative integer into 32-bit entropy words, low first (0 -> [0])."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _entropy(key: StreamKey) -> list[int]:
    """The key's 32-bit entropy words: the seed mod 2^64, the first 16 bytes of sha256(label \\x1f index), the index."""
    if key.index < 0:
        raise ValidationError("index", f"must be >= 0, got {key.index}")
    digest = hashlib.sha256(f"{key.label}\x1f{key.index}".encode()).digest()
    return [*_words(int(key.seed) & _U64), *struct.unpack("<4I", digest[:16]), *_words(int(key.index))]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """(M, 4) uint64 ``SeedSequence(e).generate_state(4, np.uint64)`` for each column e of (L, M) uint32 entropy, L >= 4."""
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * len(entropy))

    def hashmix(value: np.ndarray, lo: int, hi: int) -> np.ndarray:  # hash calls lo..hi-1, one per row of the result
        v = (value ^ xor[lo:hi]) * mul[lo:hi]
        return v ^ (v >> 16)

    pool = hashmix(entropy[:_POOL], 0, _POOL)
    for src, dst in enumerate(_OTHERS):  # every pool word into every other, destinations in order
        lo = _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], hashmix(pool[src], lo, lo + _POOL - 1))
    for src in range(_POOL, len(entropy)):  # then each entropy word past the pool into every pool word
        pool = _mix(pool, hashmix(entropy[src], _POOL * src, _POOL * (src + 1)))
    v = (np.tile(pool, (2, 1)) ^ _STATE_XOR) * _STATE_MUL
    v ^= v >> 16
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64)  # little-endian word pairs


class _PresetState(ISeedSequence):
    """Seed sequence handing PCG64 the four uint64 words ``generate_state(4, np.uint64)`` would return."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(keys: Sequence[StreamKey]) -> list[np.random.Generator]:
    """``[key.generator() for key in keys]``: the same PCG64 states, seeded in one pass over the batch."""
    entropy = [_entropy(key) for key in keys]
    states = np.empty((len(keys), 4), np.uint64)
    for n in {len(e) for e in entropy}:  # a seed or an index >= 2**32 adds a word
        rows = [i for i, e in enumerate(entropy) if len(e) == n]
        states[rows] = _pcg64_states(np.array([entropy[i] for i in rows], np.uint32).T)
    return [np.random.Generator(np.random.PCG64(_PresetState(s))) for s in states]


_BLOCK_VALUES = 1 << 22  # noise values per run, shared by its slices (32 MB of doubles)
_CALL_VALUES = 1024  # values per draw call: a call's fixed cost (~0.8 us) is paid back by about this many
_FILL_GROUP = 128  # replicas drawn per tile while a block is filled
_SCALAR_TAIL = 32  # live replicas at or below which a run given a scalar step finishes each alone


# 2^20 replicas: their stream keys and generators (about 136 + 777 B each) take 0.9 GiB before the first step
_MAX_REPLICAS = 1 << 20
# steps of one path: five times the most anything here runs (2e7: marginal_first_passage's default
# t_cap = 200 at dt = 1e-5, and the urn exhibits' cap); more are rejected before anything runs
_MAX_STEPS = 100_000_000
# noise values per worker below which a split does not pay for its pool (starting and joining one costs ~15 ms)
_SPLIT_VALUES = 1 << 21


def check_sizes(n_steps: int, n_replicas: int) -> None:
    """Reject a step count outside [0, ``_MAX_STEPS``], or a replica count outside [1, ``_MAX_REPLICAS``], naming the flag."""
    if not 0 <= n_steps <= _MAX_STEPS:
        raise ValidationError("steps", f"must lie in [0, {_MAX_STEPS}], got {n_steps}")
    if not 1 <= n_replicas <= _MAX_REPLICAS:
        raise ValidationError("replicas", f"must lie in [1, {_MAX_REPLICAS}], got {n_replicas}")


def run_streams(
    keys: Sequence[StreamKey], n_steps: int, state, kernel, observe, draw="random", shape=(), scalar=None, *, budget: int
) -> None:
    """Step one replica per stream key ``n_steps`` times; the results are what ``observe`` and ``scalar`` record.

    Each step every replica draws a value of ``shape`` with its generator's
    ``draw`` method, then ``state = kernel(state, noise)`` with noise of
    shape ``(M,) + shape``, a view of memory with the replica axis last.
    ``observe(n, state)`` sees the state after n steps, from n = 0, and
    must copy what it keeps.  It may retire replicas by returning the
    indices, among the current rows, of those that stay: the state's first
    axis is indexed with them and their streams are no longer drawn.  A
    noise block holds about ``budget`` values (``_BLOCK_VALUES``, a whole
    run's, or the share ``map_replicas`` gave a slice of a split run) and
    spans at most S = ``max(1, _CALL_VALUES // prod(shape))`` steps, so
    that no draw call fills more than ``_CALL_VALUES`` values (one step's,
    if a step draws more).  Every block of the call is a view of one
    buffer, allocated before the first at the largest block the call can
    fill: ``min(budget, S * width)`` values for a block row of ``width``
    values, at least one row and at most ``n_steps`` rows.

    ``scalar`` is ``kernel`` then ``observe`` for one replica in plain
    floats: ``scalar(j, n, x, noise)`` returns row j's value after step n
    from its value x = ``state[j].tolist()`` before it, or None to retire
    the row.  At the end of a block at which at most ``_SCALAR_TAIL``
    replicas are live (or at n = 0, if no more start), each finishes alone
    through it on its own generator's next draws, so row i still reads
    stream i in order; ``observe`` is not called again.

    Sizes are not checked here: every front-end has checked them with
    ``check_sizes``.
    """
    fills = [getattr(g, draw) for g in generators(keys)]  # each replica's draw method, bound once
    keep = observe(0, state)
    if keep is not None:
        state, fills = state[keep], [fills[i] for i in keep]
    least = 0 if scalar is None else _SCALAR_TAIL  # a block starts while more replicas than this are live
    call = max(1, _CALL_VALUES // math.prod(shape))  # steps of one draw call
    width = len(fills) * math.prod(shape)
    buf = np.empty(min(n_steps * width, max(width, min(budget, call * width))))  # retiring replicas only narrow later blocks
    n = 0
    while n < n_steps and len(fills) > least:
        width = len(fills) * math.prod(shape)
        steps = min(n_steps - n, call, max(1, budget // width))
        block = buf[: steps * width].reshape((steps,) + shape + (len(fills),))
        tile = np.empty((min(_FILL_GROUP, len(fills)), steps) + shape)
        rows = list(tile)
        for lo in range(0, len(fills), _FILL_GROUP):  # one draw call per replica, transposed a tile at a time
            group = fills[lo : lo + _FILL_GROUP]
            for fill, row in zip(group, rows):
                fill(out=row)
            block[..., lo : lo + len(group)] = np.moveaxis(tile[: len(group)], 0, -1)
        cols = None  # block columns of the replicas still running, None while all are
        for row in np.moveaxis(block, -1, 1):  # (M,) + shape views of replica-last rows
            n += 1
            state = kernel(state, row if cols is None else row[cols])
            keep = observe(n, state)
            if keep is not None:
                state = state[keep]
                cols = keep if cols is None else cols[keep]
                if not len(cols):  # every replica retired
                    break
        if cols is not None:
            fills = [fills[i] for i in cols]
    if scalar is not None and fills and n < n_steps:
        _scalar_tail(scalar, state, fills, n, n_steps, shape)


def _chunks(fill, n: int, n_steps: int, shape: tuple):
    """The draws of steps n + 1..n_steps as lists, one draw call ``fill(size=...)`` per chunk.

    A chunk of m steps draws ``(m,) + shape`` values, in the step-major,
    component-minor order in which a noise block is filled; it spans
    ``max(1, _CALL_VALUES // prod(shape))`` steps, the last one fewer, so
    it holds at most ``_CALL_VALUES`` values (one step's, if a step draws
    more).
    """
    call = max(1, _CALL_VALUES // math.prod(shape))
    for lo in range(n, n_steps, call):
        yield fill(size=(min(n_steps - lo, call),) + shape).tolist()


def _scalar_tail(scalar, state: np.ndarray, fills, n: int, n_steps: int, shape: tuple) -> None:
    """Steps n + 1..n_steps of each row alone through ``scalar``, on its draw method's next draws, until ``scalar`` retires it."""
    for j, fill in enumerate(fills):
        x = state[j].tolist()
        for m, noise in enumerate(itertools.chain.from_iterable(_chunks(fill, n, n_steps, shape)), n + 1):
            x = scalar(j, m, x, noise)
            if x is None:
                break


def run_path(key: StreamKey, n_steps: int, x, step, name: str, draw="random", shape=()) -> np.ndarray:
    """One path of ``n_steps`` steps ``x = step(x, noise)`` from x on ``key``'s stream; returns x after each step.

    x is a float, and the result an ``(n_steps + 1,)`` array, or a list of
    floats, and the result an ``(n_steps + 1, len(x))`` array; row 0 is
    the start.  noise is a draw of ``shape`` as a float or a list, drawn in
    the chunks of ``run_streams``' scalar tail.  Each chunk's rows are kept
    as one flat list of floats and written into the array when it ends, so
    a long path never lives as one Python list.  A path of more than 2^27
    values (1 GiB of doubles) is rejected before any draw, naming ``name``.
    """
    row = np.shape(x)  # () for a float, (k,) for a list of k floats
    if (n_steps + 1) * math.prod(row) > 1 << 27:
        raise ValidationError(name, f"a path of {n_steps:.4g} steps records over {1 << 27} values")
    out = np.empty((n_steps + 1,) + row)
    out[0], n, values = x, 0, []
    add = values.extend if row else values.append
    for noise in _chunks(getattr(key.generator(), draw), 0, n_steps, shape):
        for z in noise:
            x = step(x, z)
            add(x)
        out[n + 1 : n + 1 + len(noise)] = np.reshape(values, (-1,) + row)
        n += len(noise)
        values.clear()
    return out


def _default_workers(values: int) -> int:
    """Worker count for a run of ``values`` noise values: the usable CPUs, each given ``_SPLIT_VALUES`` or more.

    Inside a daemonic process, such as a ``multiprocessing.Pool`` worker,
    which may not start processes, it is 1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(cpus, values // _SPLIT_VALUES))
    if workers > 1:
        import multiprocessing  # only on the split path: importing the command line must not load it

        if multiprocessing.current_process().daemon:
            return 1
    return workers


def map_replicas(job: Callable, keys: Sequence[StreamKey], workers: int | None, draws: int) -> np.ndarray:
    """``job(keys, budget)``, with the keys split into contiguous slices over ``workers`` processes, this one included.

    ``job(part, budget)`` runs one slice on a noise budget of ``budget``
    values, the slice's share ``_BLOCK_VALUES * len(part) // len(keys)`` of
    the run's, which it hands to ``run_streams``; at one worker it is
    ``job(keys, _BLOCK_VALUES)``.  ``job`` must pickle (a module-level
    function, or a ``functools.partial`` of one) and return an array with
    one entry per key along axis 1, as a ``(checkpoints, replicas, k)``
    ensemble does.  Callers validate inputs first, so that no process
    starts on a bad one.  This process runs the first slice while a pool
    runs the others.  ``workers=None`` takes ``_default_workers`` of the
    run's noise values, ``draws`` per key at most (a first exit passes its
    step cap, which paths that exit early do not reach).
    """
    if workers is None:
        workers = _default_workers(len(keys) * draws)
    if not workers >= 1:
        raise ValidationError("workers", f"must be >= 1, got {workers}")
    workers = min(int(workers), len(keys))
    if workers <= 1:
        return job(keys, _BLOCK_VALUES)
    from concurrent.futures import ProcessPoolExecutor  # imported on first use: it pulls in multiprocessing

    bounds = [len(keys) * w // workers for w in range(workers + 1)]
    slices = [(keys[lo:hi], _BLOCK_VALUES * (hi - lo) // len(keys)) for lo, hi in zip(bounds, bounds[1:])]
    pool = ProcessPoolExecutor(max_workers=workers - 1)
    try:
        futures = [pool.submit(job, *part) for part in slices[1:]]
        parts = [job(*slices[0])] + [f.result() for f in futures]
    finally:  # joins the pool, also when a slice raised; slices not yet started are dropped
        pool.shutdown(cancel_futures=True)
    return np.concatenate(parts, axis=1)


def checkpoint_steps(checkpoints, horizon, step_of) -> dict[int, list[int]]:
    """``{n: [j, ...]}``: checkpoint j is taken after step ``step_of(checkpoints[j])``; all lie in [0, horizon]."""
    if any(not 0 <= c <= horizon for c in checkpoints):
        raise ValidationError("checkpoints", f"must lie in [0, {horizon}], got {list(checkpoints)}")
    at: dict[int, list[int]] = {}
    for j, c in enumerate(checkpoints):
        at.setdefault(step_of(c), []).append(j)
    return at


def checkpoint_slice(model: Callable, n_steps: int, at: dict[int, list[int]], n_out: int, keys, budget: int) -> np.ndarray:
    """``(n_out, len(keys), k)`` values of ``model``'s replicas after the steps of ``at``: one slice of an ensemble.

    ``model(M)`` returns M replicas' ``(state, kernel, values, draw,
    shape)``: the start, the kernel and draw of ``run_streams``, and the
    map from a state to its ``(M, k)`` values.  ``out[j] = values(state)``
    after step n for every j in ``at[n]``.
    """
    state, kernel, values, draw, shape = model(len(keys))
    out = np.empty((n_out,) + state.shape)

    def observe(n, state):
        for j in at.get(n, ()):
            out[j] = values(state)

    run_streams(keys, n_steps, state, kernel, observe, draw, shape, budget=budget)
    return out
