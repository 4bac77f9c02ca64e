"""Quadrature for the Dirichlet-weighted simplex: one Gauss-Jacobi product
rule in stick-breaking coordinates (Stroud's conical product rule) for
every supported k.  The substitution y_i = z_i (1 - y_1 - ... - y_{i-1})
turns the Dirichlet weight into a product of z_i^{gamma_i} (1 - z_i)^{C_i - 1},
C_i = sum_{j>i} (gamma_j + 1), one Gauss-Jacobi rule per axis.  Points are
reduced coordinates and weights are normalized against pi_gamma, so
``weights @ f(points)`` is the expectation of f under the stationary
Dirichlet law, exact for polynomials of total degree up to 2 level - 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .polynomials import GammaWeights, MultiIndexPolynomial, _degrees

__all__ = ["gauss_jacobi_01", "simplex_rule", "inner_product_quad"]


def _jacobi_raw(npts: int, exp_at_zero: float, exp_at_one: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and SciPy's weights, which integrate over [-1, 1]."""
    if exp_at_zero <= -1 or exp_at_one <= -1:
        raise ValidationError("exponent", "Jacobi weight exponents must exceed -1")
    from scipy.special import roots_jacobi  # loaded on first use, not on import

    with np.errstate(over="ignore"):  # SciPy's mass 2^(a+b+1) B(a+1, b+1) overflows at large uneven a, b: inf weights
        x, w = roots_jacobi(npts, float(exp_at_one), float(exp_at_zero))
    return 0.5 * (x + 1.0), w


def gauss_jacobi_01(npts: int, exp_at_zero: float, exp_at_one: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrals of t^exp_at_zero (1-t)^exp_at_one f(t) over [0, 1]."""
    t, w = _jacobi_raw(npts, exp_at_zero, exp_at_one)
    return t, w * 2.0 ** -(exp_at_zero + exp_at_one + 1.0)


def simplex_rule(gw: GammaWeights, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (level^(k-1), k-1) and pi_gamma-normalized weights for T^{k-1}.

    ``level`` is the Gauss order per axis; the first axis varies slowest.
    Below b/alpha = 6 each factor's weights are scaled by 2^-(e0 + e1 + 1)
    and the product by the normalizer 1/C.  From there on each factor is
    normalized to unit mass instead, as the Dirichlet law is the product of
    its Beta factors: over k = 2..5 and random p the scaled mass error
    passes 1e-14 near b/alpha = 6.6 and reaches 1e-12 at 300, while the
    per-factor one stays within a few ulps.
    """
    k = gw.k
    _degrees(k)  # the supported k, else a ValidationError naming k
    g = [float(x) for x in gw.gamma]
    exps = [(g[i], sum(g[i + 1 :]) + (k - 2 - i)) for i in range(k - 1)]
    log_norm = -gw.log_dirichlet_constant
    scaled = sum(g) + k < 12.0  # 2 b/alpha = |gamma| + k
    pts, w, remaining = np.empty((1, 0)), np.ones(1), np.ones(1)
    for e0, e1 in exps:
        z, wz = _jacobi_raw(level, e0, e1)
        if not np.isfinite(wz).all():
            raise ValidationError("gamma", f"Gauss-Jacobi weights overflow at exponents ({e0}, {e1})")
        wz = wz * 2.0 ** -(e0 + e1 + 1.0) if scaled else wz / wz.sum()
        pts = np.column_stack([np.repeat(pts, level, axis=0), np.outer(remaining, z).ravel()])
        remaining = np.outer(remaining, 1.0 - z).ravel()
        w = np.outer(w, wz).ravel()
    return pts, w * math.exp(log_norm) if scaled else w


def inner_product_quad(f: MultiIndexPolynomial, g: MultiIndexPolynomial, gw: GammaWeights) -> float:
    """<f, g> under pi_gamma by the Gauss rule exact at degree deg f + deg g (independent of the moment route)."""
    pts, w = simplex_rule(gw, (f.degree + g.degree) // 2 + 1)
    return float(w @ (f.eval_many(pts) * g.eval_many(pts)))
