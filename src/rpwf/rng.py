"""Deterministic random streams and the engine that steps every simulation.

Every stochastic routine in the package draws from a ``numpy`` PCG64
generator obtained from a master seed, a component label and a replica
index.  The triple is hashed into a ``SeedSequence`` so that

* the same triple always yields the same stream, on any platform,
* distinct labels or indices yield statistically independent streams,
* ensembles can hand replica ``i`` its own stream without coordination.

``run_streams`` is the package's one loop over time steps: per step, a
kernel advances M replicas with a noise row holding each one's next draw.
Replica i reads only stream i, in order, and shares no arithmetic with the
others, so a single path (an ensemble of one) equals ensemble row i bit for
bit, and no output depends on the noise block size or on worker counts.

A noise block is stored replica-last, ``(steps,) + shape + (M,)``, and the
kernel is handed each step's row as an ``(M,) + shape`` view of it: the
shapes are the replica-first ones, while a pass over one draw index reads
a contiguous row of M values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

_U64 = (1 << 64) - 1


def seed_sequence(seed: int, label: str = "main", index: int = 0) -> np.random.SeedSequence:
    digest = hashlib.sha256(f"{label}\x1f{index}".encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(seed) & _U64, *words, int(index)])


def generator(seed: int, label: str = "main", index: int = 0) -> np.random.Generator:
    """PCG64 generator for the (seed, label, index) stream."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, label, index)))


@dataclass(frozen=True)
class StreamKey:
    """Record of which stream produced a stochastic artifact."""

    seed: int
    label: str = "main"
    index: int = 0

    def generator(self) -> np.random.Generator:
        return generator(self.seed, self.label, self.index)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "label": self.label, "index": self.index}


_BLOCK_VALUES = 1 << 22  # noise values per block (32 MB of doubles)
_BLOCK_STEPS = 2048  # and at most this many steps
_FILL_GROUP = 64  # replicas drawn per tile while a block is filled


def check_sizes(n_steps: int, n_replicas: int) -> None:
    """Reject a negative step count or fewer than one replica, naming the flag."""
    if n_steps < 0:
        raise ValidationError("steps", f"must be >= 0, got {n_steps}")
    if n_replicas < 1:
        raise ValidationError("replicas", f"must be >= 1, got {n_replicas}")


def run_streams(keys: Sequence[StreamKey], n_steps: int, state, kernel, observe, draw="random", shape=()):
    """Step one replica per stream key ``n_steps`` times; returns the last state.

    Each step every replica draws a value of ``shape`` with its generator's
    ``draw`` method, then ``state = kernel(state, noise)`` with noise of
    shape ``(M,) + shape``, a view of memory with the replica axis last.
    ``observe(n, state)`` sees the state after n steps, from n = 0, and
    must copy what it keeps.  It may retire replicas by returning the
    indices, among the current rows, of those that stay: the state's first
    axis is indexed with them and their streams are no longer drawn.  A
    noise block holds about ``_BLOCK_VALUES`` values.
    """
    check_sizes(n_steps, len(keys))
    gens = [key.generator() for key in keys]
    keep = observe(0, state)
    if keep is not None:
        state, gens = state[keep], [gens[i] for i in keep]
    buf = np.empty(0)
    n = 0
    while n < n_steps and gens:
        width = len(gens) * math.prod(shape)
        steps = min(n_steps - n, _BLOCK_STEPS, max(1, _BLOCK_VALUES // width))
        if buf.size < steps * width:  # reused by later blocks, which are rarely larger
            buf = np.empty(steps * width)
        block = buf[: steps * width].reshape((steps,) + shape + (len(gens),))
        tile = np.empty((min(_FILL_GROUP, len(gens)), steps) + shape)
        for lo in range(0, len(gens), _FILL_GROUP):  # one draw call per replica, transposed a tile at a time
            group = gens[lo : lo + _FILL_GROUP]
            for t, g in enumerate(group):
                tile[t] = getattr(g, draw)(size=tile.shape[1:])
            block[..., lo : lo + len(group)] = np.moveaxis(tile[: len(group)], 0, -1)
        cols = None  # block columns of the replicas still running, None while all are
        for row in np.moveaxis(block, -1, 1):  # (M,) + shape views of replica-last rows
            n += 1
            state = kernel(state, row if cols is None else row[cols])
            keep = observe(n, state)
            if keep is not None:
                state = state[keep]
                cols = keep if cols is None else cols[keep]
                if not len(cols):
                    break
        if cols is not None:
            gens = [gens[i] for i in cols]
    return state


def record_checkpoints(checkpoints, horizon, step_of, out: np.ndarray, values) -> Callable:
    """Observer setting ``out[j] = values(state)`` at step ``step_of(checkpoints[j])``; all must lie in [0, horizon]."""
    if any(not 0 <= c <= horizon for c in checkpoints):
        raise ValidationError("checkpoints", f"must lie in [0, {horizon}], got {list(checkpoints)}")
    at: dict[int, list[int]] = {}
    for j, c in enumerate(checkpoints):
        at.setdefault(step_of(c), []).append(j)

    def observe(n, state):
        for j in at.get(n, ()):
            out[j] = values(state)

    return observe
