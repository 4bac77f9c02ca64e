"""Property tests of the spectral transition density over the parameter space.

Each example draws k in {2, 3}, b/alpha in [0.15, 3] (both sides of the
recessive threshold 1/2), an interior mutation kernel p, interior points and
t in [0.3, 4], then checks unit mass on the Gauss simplex rule, detailed
balance against the stationary Dirichlet density, and agreement with the
symbolic product-Jacobi basis.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rpwf.polynomials import GammaWeights, basis_jacobi, eigenvalue_nu, multi_indices
from rpwf.quadrature import simplex_rule
from rpwf.spectral import SpectralTransitionDensity, dirichlet_density
from rpwf.wright_fisher import WfParams


def interior(k: int):
    """Full simplex points whose coordinates are all at least 0.05 / k."""
    weights = st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
    return weights.map(lambda w: np.array(w) / sum(w))


@st.composite
def cases(draw):
    k = draw(st.sampled_from([2, 3]))
    rate = draw(st.floats(0.15, 3.0))
    params = WfParams(b=rate, alpha=1.0, p=draw(interior(k)))
    y0, y = draw(interior(k))[:-1], draw(interior(k))[:-1]
    return params, y0, y, draw(st.floats(0.3, 4.0))


@given(cases())
def test_density_has_unit_mass_on_gauss_rule(case):
    params, y0, _, t = case
    S = SpectralTransitionDensity(params)
    gw = S.gw
    # Gauss order per axis that integrates the degree-max_degree kernel exactly
    pts, w = simplex_rule(gw, 40 if params.k == 2 else S.max_degree + 1)
    kernel = np.array([S(y0, y, t) / dirichlet_density(gw, y) for y in pts])
    assert abs(float(w @ kernel) - 1.0) < 1e-8


@given(cases())
def test_density_satisfies_detailed_balance(case):
    params, x, y, t = case
    S = SpectralTransitionDensity(params)
    lhs = dirichlet_density(S.gw, x) * S(x, y, t)
    rhs = dirichlet_density(S.gw, y) * S(y, x, t)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@given(cases(), st.integers(0, 4))
def test_density_matches_symbolic_basis_route(case, max_degree):
    params, y0, y, t = case
    S = SpectralTransitionDensity(params, max_degree)
    gw = GammaWeights.from_wf(params)
    kernel = 0.0
    for deg in range(max_degree + 1):
        for n in multi_indices(params.k - 1, deg):
            f = basis_jacobi(n, gw)
            kernel += math.exp(-eigenvalue_nu(deg, params) * t) * f(y) * f(y0)
    symbolic = dirichlet_density(gw, y) * kernel
    assert abs(S(y0, y, t) - symbolic) <= 1e-10 * max(1.0, abs(symbolic))
