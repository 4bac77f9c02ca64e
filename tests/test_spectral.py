import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate, stats

from rpwf import spectral
from rpwf.boundary import stationary_beta_cdf
from rpwf.errors import ValidationError
from rpwf.polynomials import GammaWeights, basis_jacobi, multi_indices
from rpwf.quadrature import gauss_jacobi_01, simplex_rule
from rpwf.spectral import (
    SpectralTransitionDensity,
    dirichlet_density,
    forward_equation_residual,
    transition_density,
)
from rpwf.stats import ks_one_sample
from rpwf.wright_fisher import OneDimWf, WfParams, marginal_ensemble_values

RATE1 = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))  # gamma = (0, 0)


def test_dirichlet_density_uniform():
    gw = GammaWeights((F(0), F(0)))
    for y in (0.1, 0.5, 0.9):
        assert dirichlet_density(gw, [y]) == pytest.approx(1.0, abs=1e-14)


def test_dirichlet_density_beta22():
    gw = GammaWeights((F(1), F(1)))
    assert dirichlet_density(gw, [0.5]) == pytest.approx(1.5, abs=1e-12)
    assert dirichlet_density(gw, [0.25]) == pytest.approx(6 * 0.25 * 0.75, abs=1e-12)


def test_dirichlet_density_boundary_handling():
    gw_neg = GammaWeights((-0.5, 0.5))
    assert dirichlet_density(gw_neg, [0.0]) == math.inf
    gw_pos = GammaWeights((0.5, 0.5))
    assert dirichlet_density(gw_pos, [0.0]) == 0.0
    gw_zero = GammaWeights((F(0), F(0)))
    assert dirichlet_density(gw_zero, [0.0]) == pytest.approx(1.0)


def test_dirichlet_normalization_against_adaptive_quadrature():
    # raw-weight integral over T^2 for gamma = (0.2, -0.5, 1), via scipy's
    # adaptive rules with the algebraic endpoint weight split off
    gw = GammaWeights((0.2, -0.5, 1.0))

    def inner(y1):
        val, _ = integrate.quad(lambda v: (1 - v) ** 0.0, 0, 1, weight="alg", wvar=(-0.5, 1.0))
        return val * y1**0.2 * (1 - y1) ** 1.5

    raw, _ = integrate.quad(inner, 0, 1, epsabs=1e-12, limit=200)
    assert raw == pytest.approx(math.exp(gw.log_dirichlet_constant), abs=1e-8)


def test_dirichlet_integrates_to_one_on_triangle():
    gw = GammaWeights((0.2, -0.5, 1.0))
    pts, w = simplex_rule(gw, 40)
    assert w.sum() == pytest.approx(1.0, abs=1e-8)
    vals = np.array([dirichlet_density(gw, y) for y in pts])
    raw_w = w / vals  # unnormalized Lebesgue weights on the triangle
    assert float(raw_w @ vals) == pytest.approx(1.0, abs=1e-8)


def test_gauss_jacobi_01_polynomial_exactness():
    t, w = gauss_jacobi_01(8, 0.5, 1.5)
    exact = math.gamma(1.5) * math.gamma(2.5) / math.gamma(4.0)  # B(1.5, 2.5)
    assert float(w.sum()) == pytest.approx(exact, rel=1e-13)
    moment = float(w @ t**3)
    exact3 = math.gamma(4.5) * math.gamma(2.5) / math.gamma(7.0)
    assert moment == pytest.approx(exact3, rel=1e-12)


def test_transition_density_rejects_bad_t():
    with pytest.raises(ValidationError):
        transition_density([0.3], [0.5], 0.0, RATE1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_transition_density_rejects_non_finite_t(t):
    # t = inf computed 0 * inf in the degree-0 term and returned nan with a RuntimeWarning
    with pytest.raises(ValidationError) as exc:
        transition_density([0.3], [0.5], t, RATE1)
    assert exc.value.field == "t"


@pytest.mark.parametrize("y0", [[0.3], [0.3, 0.2, 0.1]])
def test_evaluate_rejects_y0_of_wrong_length(y0):
    # at k = 3 a one-coordinate y0 broadcast silently (1.6437); a three-coordinate one raised a numpy error
    S = SpectralTransitionDensity(WfParams(b=1.0, alpha=1.0, p=np.full(3, 1 / 3)))
    with pytest.raises(ValidationError) as exc:
        S.evaluate(y0, [0.2, 0.3], 1.0)
    assert exc.value.field == "y0"


@pytest.mark.parametrize("field", ["y0", "y"])
def test_evaluate_rejects_nan_points(field):
    points = {"y0": [0.3, 0.2], "y": [0.2, 0.3]}
    points[field] = [0.2, math.nan]
    S = SpectralTransitionDensity(WfParams(b=1.0, alpha=1.0, p=np.full(3, 1 / 3)))
    with pytest.raises(ValidationError) as exc:
        S.evaluate(points["y0"], points["y"], 1.0)
    assert exc.value.field == field


def test_transition_density_at_a_huge_time_is_stationary():
    # -nu t overflowed with a RuntimeWarning at t = 1e308; every mode but the constant one has decayed
    stat = dirichlet_density(GammaWeights.from_wf(RATE1), [0.5])
    assert transition_density([0.3], [0.5], 1e308, RATE1).value == stat


@pytest.mark.parametrize("alpha", [1e-9, 1e-300])
def test_evaluator_rejects_b_over_alpha_past_its_precision(alpha):
    # at b/alpha = 2.5e11 (k = 2) the Jacobi binomials overflowed and evaluate returned nan
    with pytest.raises(ValidationError) as exc:
        SpectralTransitionDensity(WfParams(b=1.0, alpha=alpha, p=np.array([0.5, 0.5])))
    assert exc.value.field == "alpha"


def test_evaluate_past_the_float_range_names_the_point():
    # the basis rows at y0 = y = 1 - 1e-8 reach 9e161: their product overflowed with a RuntimeWarning, and
    # times exp(-nu_n t) = 0 gave nan, which evaluate returned
    S = SpectralTransitionDensity(WfParams(b=1e6, alpha=1.0, p=np.array([1e-3, 1 - 1e-3])), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (1.0, 2.0):  # the second call reads y's memoised terms
            with pytest.raises(ValidationError) as exc:
                S.evaluate([1 - 1e-8], [1 - 1e-8], t)
            assert exc.value.field == "y" and "not a finite float" in str(exc.value)
        assert math.isfinite(S.evaluate([1e-3], [1e-3], 1.0).value)


def test_evaluate_names_y0_when_its_basis_row_overflows():
    # no admitted parameters overflow a single row (at most about 1e275 at b/alpha = 1e8), so the norms are
    # scaled to put y0's row (1.9e261 at 1 - 1e-8) past the float range while y's (7e22 at 1e-12) stays inside
    S = SpectralTransitionDensity(WfParams(b=1e8, alpha=1.0, p=np.array([1e-6, 1 - 1e-6])), 40)
    S._inv_norm = S._inv_norm * 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError) as exc:
            S.evaluate([1 - 1e-8], [1e-12], 1.0)
    assert exc.value.field == "y0"


def test_point_memo_is_cleared_at_its_cap(monkeypatch):
    params = WfParams(b=2.0, alpha=1.0, p=np.full(3, 1 / 3))
    ys = np.random.default_rng(3).dirichlet(np.ones(3), 20)[:, :-1]
    expected = [SpectralTransitionDensity(params, 10).evaluate([0.3, 0.3], y, t).value for t in (0.5, 1.0) for y in ys]
    monkeypatch.setattr(spectral, "_PAIR_MEMO", 8)
    S = SpectralTransitionDensity(params, 10)
    got = []
    for t in (0.5, 1.0):
        for y in ys:
            got.append(S.evaluate([0.3, 0.3], y, t).value)
            assert len(S._pairs) <= 8
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_dirichlet_density_past_the_float_range_is_inf():
    # exp of a log-density above 709.8 raised OverflowError
    gw = GammaWeights((-0.9, -0.9, -0.9, 1.0))
    assert dirichlet_density(gw, [1e-300, 1e-300, 1e-300]) == math.inf


def test_transition_density_small_t_flag():
    assert transition_density([0.3], [0.5], 0.01, RATE1).small_t
    assert not transition_density([0.3], [0.5], 0.5, RATE1).small_t


def test_transition_density_long_time_reaches_stationarity():
    gw = GammaWeights.from_wf(RATE1)
    for y in (0.2, 0.5, 0.8):
        res = transition_density([0.3], [y], 50.0, RATE1, 30)
        assert res.value == pytest.approx(dirichlet_density(gw, [y]), abs=1e-8)
        assert not res.tail_warning


def test_transition_density_integrates_to_one():
    S = SpectralTransitionDensity(RATE1, 30)
    gw = GammaWeights.from_wf(RATE1)
    pts, w = simplex_rule(gw, 60)
    for t in (0.5, 1.0, 2.0):
        vals = np.array([S([0.3], y, t) for y in pts])
        stat = np.array([dirichlet_density(gw, y) for y in pts])
        assert float(w @ (vals / stat)) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("rate", [0.5, 0.4, 0.2])
def test_recessive_k2_density_has_unit_mass_and_reaches_beta(rate):
    # b/alpha <= 1/2: the stick-breaking factor has a + b + 1 <= 0 at degree 0
    params = WfParams(b=rate, alpha=1.0, p=np.array([0.5, 0.5]))
    S = SpectralTransitionDensity(params)
    gw = GammaWeights.from_wf(params)
    pts, w = simplex_rule(gw, 40)
    stat = np.array([dirichlet_density(gw, y) for y in pts])
    for t in (0.5, 2.0, 8.0):
        vals = np.array([S([0.5], y, t) for y in pts])
        assert float(w @ (vals / stat)) == pytest.approx(1.0, abs=1e-10)
    ys = np.linspace(0.05, 0.95, 19)
    dens = np.array([S([0.5], [y], 8.0) for y in ys])
    assert np.abs(dens / stats.beta(rate, rate).pdf(ys) - 1.0).max() < 1e-4


def test_recessive_k4_uniform_density_evaluates():
    params = WfParams(b=1.0, alpha=1.0, p=np.full(4, 0.25))  # gamma_i = -1/2
    res = transition_density([0.2, 0.3, 0.25], [0.3, 0.2, 0.2], 1.0, params)
    assert np.isfinite(res.value) and res.value > 0.0


def test_transition_density_reversibility():
    params = WfParams(b=1.3, alpha=0.8, p=np.array([0.4, 0.6]))
    S = SpectralTransitionDensity(params, 25)
    gw = GammaWeights.from_wf(params)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        y0, y = rng.random(2) * 0.8 + 0.1
        lhs = dirichlet_density(gw, [y0]) * S([y0], [y], 1.0)
        rhs = dirichlet_density(gw, [y]) * S([y], [y0], 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_transition_density_matches_symbolic_basis_route():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.6, 0.4]))
    gw = GammaWeights.from_wf(params)
    S = SpectralTransitionDensity(params, 6)

    def symbolic(y0, y, t):
        total = 0.0
        for deg in range(7):
            nu = 0.5 * deg * (deg + 2 * params.rate - 1)
            for mi in multi_indices(1, deg):
                f = basis_jacobi(mi, gw)
                total += math.exp(-nu * t) * f(np.array([y])) * f(np.array([y0]))
        return total * dirichlet_density(gw, [y])

    for y0, y, t in [(0.3, 0.6, 0.8), (0.2, 0.9, 1.5), (0.45, 0.5, 0.3)]:
        assert S([y0], [y], t) == pytest.approx(symbolic(y0, y, t), abs=1e-12)


def test_transition_density_k3_matches_symbolic_basis_route():
    params = WfParams(b=1.5, alpha=1.0, p=np.array([0.3, 0.3, 0.4]))
    gw = GammaWeights.from_wf(params)
    S = SpectralTransitionDensity(params, 5)

    def symbolic(y0, y, t):
        total = 0.0
        for deg in range(6):
            nu = 0.5 * deg * (deg + 2 * params.rate - 1)
            for mi in multi_indices(2, deg):
                f = basis_jacobi(mi, gw)
                total += math.exp(-nu * t) * f(y) * f(y0)
        return total * dirichlet_density(gw, y)

    y0 = np.array([0.25, 0.35])
    y = np.array([0.4, 0.2])
    assert S(y0, y, 0.9) == pytest.approx(symbolic(y0, y, 0.9), abs=1e-12)


def test_transition_density_against_sde_simulation():
    # distribution-level oracle: spectral CDF vs Euler-Maruyama samples
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.6, 0.4]))
    S = SpectralTransitionDensity(params, 30)
    y0, t = 0.3, 0.5
    od = OneDimWf(a0=params.rate * 0.6, a1=params.rate * 0.4)
    samples = marginal_ensemble_values(od, y0, t, 5e-4, 2000, seed=71)

    grid = np.linspace(0.0, 1.0, 401)
    mid = 0.5 * (grid[:-1] + grid[1:])
    pdf = np.array([S([y0], [m], t) for m in mid])
    cdf_grid = np.concatenate([[0.0], np.cumsum(pdf) * (grid[1] - grid[0])])
    cdf_grid /= cdf_grid[-1]

    def cdf(x):
        return np.interp(x, grid, cdf_grid)

    report = ks_one_sample(samples, cdf)
    assert report.D < report.critical[0.01]


def test_forward_equation_residual_stationary_polynomial_weight():
    params = WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))  # gamma = (1, 1)
    gw = GammaWeights.from_wf(params)
    grid = np.linspace(0.1, 0.9, 50)[:, None]
    res = forward_equation_residual(lambda y, t: dirichlet_density(gw, y), grid, 1.0, params)
    assert np.abs(res).max() < 1e-9


def test_forward_equation_residual_stationary_fractional_weight():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.6, 0.4]))  # gamma = (0.2, -0.2)
    gw = GammaWeights.from_wf(params)
    grid = np.linspace(0.1, 0.9, 50)[:, None]
    res = forward_equation_residual(lambda y, t: dirichlet_density(gw, y), grid, 1.0, params, h=2e-3)
    assert np.abs(res).max() < 1e-6


def test_forward_equation_residual_spectral_series():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.6, 0.4]))
    S = SpectralTransitionDensity(params, 20)
    grid = np.linspace(0.15, 0.85, 15)[:, None]
    res = forward_equation_residual(lambda y, t: S([0.3], y, t), grid, 1.0, params)
    assert np.abs(res).max() < 1e-4


def test_forward_equation_residual_single_mode():
    params = WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))  # polynomial weight
    gw = GammaWeights.from_wf(params)
    f1 = basis_jacobi((1,), gw)
    nu1 = 0.5 * (1 + 2 * params.rate - 1)
    y0 = np.array([0.3])

    def mode(y, t):
        return dirichlet_density(gw, y) * (1.0 + f1(y) * f1(y0) * math.exp(-nu1 * t))

    grid = np.linspace(0.15, 0.85, 15)[:, None]
    res = forward_equation_residual(mode, grid, 1.0, params)
    assert np.abs(res).max() < 1e-8


def test_forward_equation_residual_k3_stationary():
    params = WfParams(b=3.0, alpha=1.0, p=np.array([1.0, 1.0, 1.0]) / 3.0)  # gamma = (1,1,1)
    gw = GammaWeights.from_wf(params)
    g = np.linspace(0.15, 0.45, 6)
    grid = np.array([[a, b] for a in g for b in g if a + b < 0.8])
    res = forward_equation_residual(lambda y, t: dirichlet_density(gw, y), grid, 1.0, params)
    assert np.abs(res).max() < 1e-6


def test_forward_equation_residual_k4_stationary():
    # three mixed terms; the residual was 1.4e-10
    params = WfParams(b=4.0, alpha=1.0, p=np.full(4, 0.25))  # gamma = (1,1,1,1)
    gw = GammaWeights.from_wf(params)
    g = np.linspace(0.15, 0.35, 4)
    grid = np.array([[a, b, c] for a in g for b in g for c in g if a + b + c < 0.8])
    res = forward_equation_residual(lambda y, t: dirichlet_density(gw, y), grid, 1.0, params)
    assert np.abs(res).max() < 1e-6


def test_generator_matches_em_one_step_mean():
    # cross-layer convention check: (E[f(X_dt)] - f(x)) / dt -> (1/2) L_gamma f
    from rpwf.polynomials import MultiIndexPolynomial, apply_generator
    from rpwf.rng import generator as make_rng
    from rpwf.wright_fisher import em_update

    params = WfParams(b=1.3, alpha=0.9, p=np.array([0.4, 0.6]))
    gw = GammaWeights.from_wf(params)
    y = MultiIndexPolynomial.variable(1, 0)
    f = y * y
    Lf = apply_generator(f, gw)
    x = np.array([0.35, 0.65])
    dt = 5e-4
    m = 400_000
    rng = make_rng(81, "gen-em")
    out = em_update(np.tile(x, (m, 1)), rng.standard_normal((m, 2)), params, dt)
    fvals = out[:, 0] ** 2
    observed = (fvals.mean() - x[0] ** 2) / dt
    se = fvals.std(ddof=1) / math.sqrt(m) / dt
    assert abs(observed - 0.5 * Lf(np.array([x[0]]))) < 4 * se + 1e-3


def test_stationary_marginal_equals_beta_distribution():
    # k=2 reduction: first coordinate is Beta(2 rate p1, 2 rate p2)
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.7, 0.3]))
    gw = GammaWeights.from_wf(params)
    od = OneDimWf(a0=params.rate * 0.7, a1=params.rate * 0.3)
    cdf = stationary_beta_cdf(od)
    grid = np.linspace(0.02, 0.98, 25)
    dens = np.array([dirichlet_density(gw, [z]) for z in grid])
    num = np.array([(cdf(z + 1e-6) - cdf(z - 1e-6)) / 2e-6 for z in grid])
    assert np.allclose(dens, num, rtol=1e-5)


_P3 = WfParams(b=1.0, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: SpectralTransitionDensity(_P3, -1), "max-degree"),
        (lambda: SpectralTransitionDensity(_P3, 11), "max-degree"),
        (lambda: transition_density([0.2, 0.3], [1.0, 0.0], 0.5, _P3), "y"),
        (lambda: transition_density([1.0, 0.0], [0.2, 0.3], 0.5, _P3), "y0"),
        pytest.param(lambda: transition_density([1.0, 0.0], [0.2, math.nan], 0.5, _P3), "y0", id="y0-before-y"),
        (lambda: forward_equation_residual(lambda y, t: 1.0, np.array([[0.2, 0.3, 0.1]]), 0.5, _P3), "y_grid"),
    ],
)
def test_spectral_rejections_name_their_field(call, field):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == field
