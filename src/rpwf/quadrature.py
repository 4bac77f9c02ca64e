"""Quadrature rules for the Dirichlet-weighted simplex.

Gauss-Jacobi product rules (exact weight matching) for k = 2 and 3; a
scrambled-Sobol stick-breaking rule for k = 4 and 5, where stratified
uniforms are pushed through the Beta inverse CDFs of the stick-breaking
representation.  All rules return points in reduced coordinates together
with weights normalized against pi_gamma, so ``weights @ f(points)``
approximates the expectation of f under the stationary Dirichlet law.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.stats import qmc

from .errors import ValidationError
from .polynomials import GammaWeights, MultiIndexPolynomial, _trailing_weight_sum

__all__ = ["gauss_jacobi_01", "simplex_rule", "inner_product_quad"]


def gauss_jacobi_01(npts: int, exp_at_zero: float, exp_at_one: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrals of t^exp_at_zero (1-t)^exp_at_one f(t) over [0, 1]."""
    if exp_at_zero <= -1 or exp_at_one <= -1:
        raise ValidationError("exponent", "Jacobi weight exponents must exceed -1")
    x, w = special.roots_jacobi(npts, float(exp_at_one), float(exp_at_zero))
    t = 0.5 * (x + 1.0)
    scale = 2.0 ** -(exp_at_zero + exp_at_one + 1.0)
    return t, w * scale


def simplex_rule(gw: GammaWeights, level: int = 40, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Points (N, k-1) and pi_gamma-normalized weights for T^{k-1}.

    ``level`` is the per-axis Gauss order for k <= 3; the QMC fallback uses
    2^level points (capped) for k in {4, 5}.
    """
    g = [float(x) for x in gw.gamma]
    k = gw.k
    if k == 2:
        t, w = gauss_jacobi_01(level, g[0], g[1])
        return t[:, None], w * math.exp(-gw.log_dirichlet_constant)
    if k == 3:
        # y1 = u, y2 = v (1 - u); the Jacobian (1-u) joins the u-weight
        u, wu = gauss_jacobi_01(level, g[0], g[1] + g[2] + 1.0)
        v, wv = gauss_jacobi_01(level, g[1], g[2])
        U, V = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
        w = np.outer(wu, wv).ravel() * math.exp(-gw.log_dirichlet_constant)
        return pts, w
    if k in (4, 5):
        n = min(1 << level, 1 << 16)
        sob = qmc.Sobol(d=k - 1, scramble=True, seed=seed)
        U = sob.random(n)
        pts = np.empty((n, k - 1))
        remaining = np.ones(n)
        for i in range(k - 1):
            z = special.betaincinv(g[i] + 1.0, float(_trailing_weight_sum(gw, i)), U[:, i])
            pts[:, i] = z * remaining
            remaining = remaining * (1.0 - z)
        return pts, np.full(n, 1.0 / n)
    raise ValidationError("k", f"quadrature supports 2 <= k <= 5, got {k}")


def inner_product_quad(
    f: MultiIndexPolynomial, g: MultiIndexPolynomial, gw: GammaWeights, level: int = 40, seed: int = 0
) -> float:
    """<f, g> under pi_gamma by quadrature (independent of the moment route)."""
    pts, w = simplex_rule(gw, level, seed)
    return float(w @ (f.eval_many(pts) * g.eval_many(pts)))
