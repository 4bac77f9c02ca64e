"""Simplex geometry helpers.

Two coordinate systems are used throughout: full coordinates ``x``
(length k, nonnegative, summing to 1) and reduced coordinates ``y``
(length k-1, the last component implicit as ``1 - sum(y)``).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ValidationError

SIMPLEX_ATOL = 1e-10


def check_simplex(x, name: str = "x", atol: float = SIMPLEX_ATOL) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError(name, "expected a vector of length >= 2")
    if np.any(x < -atol):
        raise ValidationError(name, f"negative component {x.min()!r}")
    if abs(x.sum() - 1.0) > atol:
        raise ValidationError(name, f"components sum to {x.sum()!r}, not 1")
    return x


def check_reduced(y, name: str = "y", atol: float = 1e-12) -> np.ndarray:
    """Validate a point of the reduced simplex (all y_i >= 0, sum <= 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError(name, "expected a 1-d point")
    if np.any(y < -atol) or y.sum() > 1.0 + atol:
        raise ValidationError(name, f"{y!r} lies outside the reduced simplex")
    return y


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Row sums of an (M, k) array, added one column at a time: sequential for every k."""
    return reduce(np.add, rows.T[1:], rows[:, 0].copy())


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize so the sum is exactly 1.0.

    Works on a single vector or a batch (last axis = components).  Row sums
    are taken sequentially, one column at a time, for every k; the last
    component is recomputed as 1 minus the head sum, so the sequential row
    sum is bit-exactly 1.0 (Sterbenz for head >= 1/2, half-ulp rounding below).
    """
    shape = np.shape(v)
    rows = np.maximum(np.asarray(v, dtype=float), 0.0).reshape(-1, shape[-1])
    rows /= _row_sums(rows)[:, None]
    head = _row_sums(rows[:, :-1])
    bad = np.flatnonzero(head > 1.0)
    while bad.size:
        # the head overshot 1 by rounding (the last component is ~0): take the
        # excess off the row's largest head component until the head is <= 1
        w = rows[bad]
        w[np.arange(bad.size), w[:, :-1].argmax(axis=1)] -= head[bad] - 1.0
        rows[bad] = w
        head[bad] = _row_sums(w[:, :-1])
        bad = bad[head[bad] > 1.0]
    rows[:, -1] = 1.0 - head
    return rows.reshape(shape)


def random_simplex_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (flat Dirichlet) sample of n points on the k-simplex."""
    g = rng.standard_exponential((n, k))
    return g / g.sum(axis=1, keepdims=True)
