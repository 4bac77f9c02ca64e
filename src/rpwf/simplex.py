"""Simplex geometry helpers.

Two coordinate systems are used throughout: full coordinates ``x``
(length k, nonnegative, summing to 1) and reduced coordinates ``y``
(length k-1, the last component implicit as ``1 - sum(y)``).

``project_to_simplex`` keeps the (…, k) shape of its input but works on a
component-major (k, M) copy, the replica axis last in memory, so its
sequential row sums add whole contiguous component rows.
``_project_floats`` is the same projection of one row of Python floats, in
the same operation order, for the single-path Euler-Maruyama step.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

SIMPLEX_ATOL = 1e-10


def check_simplex(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError(name, "expected a vector of length >= 2")
    # written in positive form, so that a NaN (every comparison false) fails;
    # components of at most 1 keep the sum below overflow
    if not np.all((x >= -SIMPLEX_ATOL) & (x <= 1.0 + SIMPLEX_ATOL)):
        raise ValidationError(name, f"component outside [0, 1] or NaN in {x!r}")
    if not abs(x.sum() - 1.0) <= SIMPLEX_ATOL:
        raise ValidationError(name, f"components sum to {float(x.sum())!r}, not 1")
    return x


def check_reduced(y, name: str = "y") -> np.ndarray:
    """Validate a point of the reduced simplex (all y_i >= 0, sum <= 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ValidationError(name, "expected a non-empty 1-d point")
    # Python floats: cheaper than two reductions at k - 1 <= 4 coordinates, and a
    # sum past the float range is inf without a warning.  Positive form, so that
    # a NaN fails: min may skip it, the sum carries it.
    vals = y.tolist()
    if not (min(vals) >= -SIMPLEX_ATOL and sum(vals) <= 1.0 + SIMPLEX_ATOL):
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


def _project_floats(v: list) -> list:
    """``project_to_simplex`` of one row of Python floats, bit for bit: its operations in its order.

    The row must have a positive part, as every Euler-Maruyama step's row
    does (its sum is 1 up to rounding): where numpy divides 0 by 0 to nan,
    Python raises.
    """
    r = [0.0 if x <= 0.0 else x for x in v]  # np.maximum(v, 0.0): nan passes, -0.0 becomes 0.0
    total = r[0]
    for x in r[1:]:
        total += x
    r = [x / total for x in r]
    head = r[0]
    for x in r[1:-1]:
        head += x
    while head > 1.0:  # the overshoot loop, on this row alone
        i = max(range(len(r) - 1), key=r.__getitem__)  # argmax's first of tied maxima
        r[i] -= head - 1.0
        head = r[0]
        for x in r[1:-1]:
            head += x
    r[-1] = 1.0 - head
    return r
