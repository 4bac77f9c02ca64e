"""Simplex geometry helpers.

Two coordinate systems are used throughout: full coordinates ``x``
(length k, nonnegative, summing to 1) and reduced coordinates ``y``
(length k-1, the last component implicit as ``1 - sum(y)``).

``project_to_simplex`` keeps the (…, k) shape of its input but works on a
component-major (k, M) copy, the replica axis last in memory, so its
sequential row sums add whole contiguous component rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

SIMPLEX_ATOL = 1e-10


def check_simplex(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError(name, "expected a vector of length >= 2")
    # written in positive form, so that a NaN (every comparison false) fails
    if not np.all(x >= -SIMPLEX_ATOL):
        raise ValidationError(name, f"negative or NaN component {x.min()!r}")
    if not abs(x.sum() - 1.0) <= SIMPLEX_ATOL:
        raise ValidationError(name, f"components sum to {x.sum()!r}, not 1")
    return x


def check_reduced(y, name: str = "y") -> np.ndarray:
    """Validate a point of the reduced simplex (all y_i >= 0, sum <= 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError(name, "expected a 1-d point")
    if not (np.all(y >= -1e-12) and y.sum() <= 1.0 + 1e-12):  # positive form: NaN fails
        raise ValidationError(name, f"{y!r} lies outside the reduced simplex")
    return y


def _component_sums(R: np.ndarray) -> np.ndarray:
    """Sums over the first axis of a component-major (k, M) array, added one component at a time."""
    total = R[0].copy()
    for r in R[1:]:
        total += r
    return total


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize so the sum is exactly 1.0.

    Works on a single vector or a batch (last axis = components).  Row sums
    are taken sequentially, one column at a time, for every k; the last
    component is recomputed as 1 minus the head sum, so the sequential row
    sum is bit-exactly 1.0 (Sterbenz for head >= 1/2, half-ulp rounding below).
    The work runs on a component-major (k, M) copy, so an (M, k) batch comes
    back as a view of (k, M) memory.
    """
    shape = np.shape(v)
    rows = np.asarray(v, dtype=float).reshape(-1, shape[-1])
    R = np.maximum(rows.T, 0.0, out=np.empty(rows.T.shape))
    R /= _component_sums(R)
    head = _component_sums(R[:-1])
    bad = np.flatnonzero(head > 1.0)
    while bad.size:
        # the head overshot 1 by rounding (the last component is ~0): take the
        # excess off the row's largest head component until the head is <= 1
        w = R[:, bad]
        w[w[:-1].argmax(axis=0), np.arange(bad.size)] -= head[bad] - 1.0
        R[:, bad] = w
        head[bad] = _component_sums(w[:-1])
        bad = bad[head[bad] > 1.0]
    np.subtract(1.0, head, out=R[-1])
    return R.T.reshape(shape)


def random_simplex_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (flat Dirichlet) sample of n points on the k-simplex."""
    g = rng.standard_exponential((n, k))
    return g / g.sum(axis=1, keepdims=True)
