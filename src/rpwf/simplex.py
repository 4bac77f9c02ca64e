"""Simplex geometry helpers.

Two coordinate systems are used throughout: full coordinates ``x``
(length k, nonnegative, summing to 1) and reduced coordinates ``y``
(length k-1, the last component implicit as ``1 - sum(y)``).
"""

from __future__ import annotations

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


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize so the sum is exactly 1.0.

    Works on a single vector or a batch (last axis = components).  After the
    division the last component is recomputed as 1 minus the head sum; for
    the short rows used here numpy sums sequentially, so the full row sum is
    then bit-exactly 1.0 (Sterbenz for head >= 1/2, half-ulp rounding below).
    """
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    s = v.sum(axis=-1, keepdims=True)
    v = v / s
    head = v[..., :-1].sum(axis=-1)
    last = 1.0 - head
    bad = last < 0.0
    v[..., -1] = np.where(bad, v[..., -1], last)
    if np.any(bad):
        # head overshot 1 by rounding; absorb the residual iteratively
        w = v[bad] if v.ndim > 1 else v
        for _ in range(8):
            r = 1.0 - w.sum(axis=-1, keepdims=True)
            if not np.any(r):
                break
            w = np.maximum(w + r / w.shape[-1], 0.0)
        if v.ndim > 1:
            v[bad] = w
        else:
            v = w
    return v


def random_simplex_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (flat Dirichlet) sample of n points on the k-simplex."""
    g = rng.standard_exponential((n, k))
    return g / g.sum(axis=1, keepdims=True)
