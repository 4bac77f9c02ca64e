import math

import numpy as np
import pytest

from rpwf.boundary import (
    BoundaryType,
    IntervalProblem,
    classify_boundary,
    expected_cost,
    expected_cost_scale_form,
    green_function,
    group_to_1d,
    hitting_prob,
    is_dominant,
    is_recessive,
    mean_exit_time,
    return_ratio_density,
    scale_function,
    scale_increment,
    speed_density,
)
from rpwf.errors import ValidationError
from rpwf.polynomials import GammaWeights
from rpwf.rng import generator
from rpwf.spectral import dirichlet_density
from rpwf.wright_fisher import OneDimWf, WfParams, marginal_first_passage


def test_classify_boundary_table():
    assert classify_boundary(0.0) is BoundaryType.EXIT
    assert classify_boundary(0.25) is BoundaryType.REGULAR
    assert classify_boundary(0.49999) is BoundaryType.REGULAR
    assert classify_boundary(0.5) is BoundaryType.ENTRANCE
    assert classify_boundary(3.0) is BoundaryType.ENTRANCE
    with pytest.raises(ValidationError):
        classify_boundary(-0.1)


def test_classification_mirror_symmetry():
    # the z=1 boundary with coefficient a1 behaves like z=0 with a0
    od = OneDimWf(a0=0.2, a1=0.7)
    assert classify_boundary(od.a0) is BoundaryType.REGULAR
    assert classify_boundary(od.a1) is BoundaryType.ENTRANCE
    mirrored = OneDimWf(a0=od.a1, a1=od.a0)
    assert classify_boundary(mirrored.a0) is classify_boundary(od.a1)


def test_group_to_1d_values():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))
    od = group_to_1d(params, [1])
    assert od.a0 == pytest.approx(0.5)
    assert od.a1 == pytest.approx(0.5)


def test_group_to_1d_identities():
    params = WfParams(b=1.7, alpha=0.6, p=np.array([0.2, 0.3, 0.5]))
    for J in ([1], [2, 3], [1, 3]):
        od = group_to_1d(params, J)
        assert od.a0 + od.a1 == pytest.approx(params.rate, rel=1e-14)
    J, Jc = [1, 2], [3]
    od, odc = group_to_1d(params, J), group_to_1d(params, Jc)
    assert od.a0 == pytest.approx(odc.a1) and od.a1 == pytest.approx(odc.a0)
    with pytest.raises(ValidationError):
        group_to_1d(params, [])
    with pytest.raises(ValidationError):
        group_to_1d(params, [1, 2, 3])


def test_is_recessive_examples():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.3, 0.7]))
    assert is_recessive(params, [1])
    assert not is_recessive(params, [2])


def test_every_proper_subset_recessive_when_alpha_large():
    # alpha/b > 2 (1 - min p) makes every proper subset recessive
    p = np.array([0.2, 0.3, 0.5])
    params = WfParams(b=1.0, alpha=2.0 * (1 - p.min()) + 0.1, p=p)
    for J in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        assert is_recessive(params, J)


def test_subset_of_recessive_is_recessive():
    rng = generator(3, "recessive")
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        params = WfParams(b=float(rng.random() + 0.5), alpha=float(rng.random() + 0.5), p=p)
        for J in ([1, 2], [2, 3, 4], [1, 4]):
            if is_recessive(params, J):
                for c in J:
                    assert is_recessive(params, [c])


def test_is_dominant_examples():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.9, 0.1]))
    assert is_dominant(params, 1)
    assert not is_dominant(params, 2)
    equal3 = WfParams(b=1.0, alpha=1.0, p=np.ones(3) / 3)
    assert not any(is_dominant(equal3, i) for i in (1, 2, 3))


def test_at_most_one_dominant_color():
    rng = generator(5, "dominant")
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        b = float(rng.random() * 2 + 0.5)
        alpha = float(rng.random() * b)  # alpha/(2b) <= 1/2
        params = WfParams(b=b, alpha=alpha, p=p)
        assert sum(is_dominant(params, i) for i in (1, 2, 3)) <= 1


def test_scale_function_no_drift_is_linear():
    od = OneDimWf(a0=0.0, a1=0.0)
    s1 = scale_function(od, 0.3)
    s2 = scale_function(od, 0.7)
    assert (s2 - s1) == pytest.approx(0.4, rel=1e-12)


def test_scale_function_strictly_increasing():
    od = OneDimWf(a0=0.6, a1=0.3)
    zs = np.linspace(0.05, 0.95, 15)
    vals = [scale_function(od, z) for z in zs]
    assert np.all(np.diff(vals) > 0)


def test_scale_increment_matches_riemann_oracle():
    od = OneDimWf(a0=0.25, a1=0.25)
    n = 2_000_000
    t = (np.arange(n) + 0.5) / n * 0.5 + 0.25
    riemann = float(np.sum(t**-0.5 * (1 - t) ** -0.5) * 0.5 / n)
    assert scale_increment(od, 0.25, 0.75) == pytest.approx(riemann, abs=1e-9)


def test_scale_increment_endpoint_divergence():
    od = OneDimWf(a0=0.75, a1=0.25)  # 2 a0 = 1.5 >= 1: divergent at 0
    assert scale_increment(od, 0.0, 0.5) == math.inf
    assert scale_increment(od, 0.5, 0.0) == -math.inf
    finite = scale_increment(od, 0.5, 1.0)  # 2 a1 = 0.5 < 1: integrable at 1
    assert np.isfinite(finite) and finite > 0


def test_scale_increment_endpoint_tail_value():
    # a0 = a1 = 0.25: integral of t^-1/2 (1-t)^-1/2 over (0,1) is pi (arcsine law)
    od = OneDimWf(a0=0.25, a1=0.25)
    assert scale_increment(od, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-10)


def test_scale_increment_singular_tail_against_adaptive_quadrature():
    from scipy import integrate

    od = OneDimWf(a0=0.4, a1=0.8)
    ours = scale_increment(od, 0.0, 0.3)
    ref, _ = integrate.quad(lambda t: (1 - t) ** (-2 * od.a1), 0.0, 0.3, weight="alg", wvar=(-2 * od.a0, 0.0))
    assert ours == pytest.approx(ref, rel=1e-10)


def test_speed_density_constant_when_exponents_vanish():
    od = OneDimWf(a0=0.5, a1=0.5)
    vals = [speed_density(od, z) for z in (0.1, 0.4, 0.9)]
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_speed_density_inverse_identity_via_numerical_scale_slope():
    od = OneDimWf(a0=0.35, a1=0.6)
    rng = generator(7, "speed")
    for z in rng.random(100) * 0.9 + 0.05:
        h = 1e-6 * min(z, 1 - z)
        slope = (scale_function(od, z + h) - scale_function(od, z - h)) / (2 * h)
        assert speed_density(od, z) * slope * z * (1 - z) == pytest.approx(1.0, rel=1e-6)


def test_hitting_prob_boundary_values_and_monotonicity():
    ip = IntervalProblem(od=OneDimWf(a0=0.3, a1=0.7), a=0.2, b_pt=0.8)
    assert hitting_prob(ip, 0.2) == 0.0
    assert hitting_prob(ip, 0.8) == 1.0
    us = [hitting_prob(ip, z) for z in np.linspace(0.2, 0.8, 13)]
    assert np.all(np.diff(us) > 0)
    with pytest.raises(ValidationError):
        hitting_prob(ip, 0.1)


def test_hitting_prob_symmetric_midpoint():
    ip = IntervalProblem(od=OneDimWf(a0=0.4, a1=0.4), a=0.25, b_pt=0.75)
    assert hitting_prob(ip, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_hitting_prob_invariant_under_scale_frame():
    od = OneDimWf(a0=0.3, a1=0.6)
    a, b, z0 = 0.2, 0.8, 0.45
    ratios = []
    for z_ref, S_ref, slope in ((0.5, 0.0, 1.0), (0.3, 4.0, 2.5), (0.7, -1.0, 0.1)):
        S = lambda z: scale_function(od, z, z_ref, S_ref, slope)
        ratios.append((S(z0) - S(a)) / (S(b) - S(a)))
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    ip = IntervalProblem(od=od, a=a, b_pt=b)
    assert hitting_prob(ip, z0) == pytest.approx(ratios[0], rel=1e-12)


def test_hitting_prob_matches_monte_carlo():
    od = OneDimWf(a0=0.3, a1=0.7)
    ip = IntervalProblem(od=od, a=0.2, b_pt=0.8)
    z0 = 0.5
    tau, hit_b = marginal_first_passage(od, z0, ip.a, ip.b_pt, dt=1e-4, n_paths=4000, seed=19, t_cap=50.0)
    assert not np.isnan(tau).any()
    u_mc = hit_b.mean()
    u = hitting_prob(ip, z0)
    se = math.sqrt(u_mc * (1 - u_mc) / hit_b.size)
    assert abs(u - u_mc) < 3.5 * se


def test_green_function_vanishes_at_interval_ends():
    ip = IntervalProblem(od=OneDimWf(a0=0.4, a1=0.5), a=0.2, b_pt=0.8)
    assert green_function(ip, 0.2, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert green_function(ip, 0.8, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_green_function_continuous_across_diagonal():
    ip = IntervalProblem(od=OneDimWf(a0=0.35, a1=0.55), a=0.2, b_pt=0.8)
    rng = generator(11, "green")
    for _ in range(25):
        x = float(rng.random() * 0.6 + 0.2)
        below = green_function(ip, x - 1e-12, x)
        above = green_function(ip, x + 1e-12, x)
        assert below == pytest.approx(above, abs=1e-10)


def test_expected_cost_zero_rate():
    ip = IntervalProblem(od=OneDimWf(a0=0.4, a1=0.4), a=0.25, b_pt=0.75)
    assert expected_cost(ip, 0.5, lambda s: 0.0) == 0.0


def test_expected_cost_two_representations_agree():
    rng = generator(13, "cost")
    for _ in range(5):
        a0, a1 = rng.random(2) * 0.7 + 0.1
        a = float(rng.random() * 0.2 + 0.1)
        b = float(rng.random() * 0.2 + 0.65)
        z0 = float(rng.random() * (b - a - 0.1) + a + 0.05)
        ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=a, b_pt=b)
        g = lambda s: 1.0 + 0.5 * math.sin(3 * s)
        w1 = expected_cost(ip, z0, g)
        w2 = expected_cost_scale_form(ip, z0, g)
        assert w1 == pytest.approx(w2, abs=1e-8 * max(1.0, abs(w1)))


@pytest.mark.parametrize("a", [150.0, 200.0])
def test_mean_exit_time_finite_at_large_symmetric_coefficients(a):
    # the Green function's product of two scale increments used to overflow to inf
    ip = IntervalProblem(od=OneDimWf(a0=a, a1=a), a=0.25, b_pt=0.75)
    w = mean_exit_time(ip, 0.5)
    assert math.isfinite(w)
    assert w == pytest.approx(expected_cost_scale_form(ip, 0.5, lambda s: 1.0), rel=1e-8)


def test_mean_exit_time_matches_monte_carlo():
    od = OneDimWf(a0=0.5, a1=0.5)
    ip = IntervalProblem(od=od, a=0.25, b_pt=0.75)
    z0 = 0.5
    tau, _ = marginal_first_passage(od, z0, ip.a, ip.b_pt, dt=1e-4, n_paths=4000, seed=23, t_cap=50.0)
    assert not np.isnan(tau).any()
    w = mean_exit_time(ip, z0)
    se = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(w - tau.mean()) < 3.5 * se


def test_expected_cost_nonconstant_rate_matches_monte_carlo():
    # occupation-weighted cost: w(z0) = E[ int_0^tau g(Z_t) dt ] with g(s) = s^2
    from rpwf.rng import StreamKey
    from rpwf.wright_fisher import _marginal_em

    od = OneDimWf(a0=0.5, a1=0.5)
    ip = IntervalProblem(od=od, a=0.25, b_pt=0.75)
    z0, dt, n_paths = 0.5, 1e-4, 4000
    g = lambda s: s * s
    gens = [StreamKey(29, "cost-mc", i).generator() for i in range(n_paths)]
    z = np.full(n_paths, z0)
    cost = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    for _ in range(500):  # blocks of 1000 steps until every path has exited
        if not alive.any():
            break
        zn = np.stack([gen.standard_normal(1000) for gen in gens], axis=0)
        for s in range(1000):
            cost[alive] += g(z[alive]) * dt
            z[alive] = _marginal_em(z[alive], zn[alive, s], od, dt)
            alive &= (z > ip.a) & (z < ip.b_pt)
            if not alive.any():
                break
    assert not alive.any()
    w = expected_cost(ip, z0, g)
    se = cost.std(ddof=1) / math.sqrt(n_paths)
    assert abs(w - cost.mean()) < 3.5 * se


def test_return_ratio_density_uniform_case():
    od = OneDimWf(a0=0.5, a1=0.5)
    for z in (0.1, 0.5, 0.9):
        assert return_ratio_density(od, z) == pytest.approx(1.0, abs=1e-12)


def test_return_ratio_density_equals_stationary_marginal():
    params = WfParams(b=1.3, alpha=0.9, p=np.array([0.35, 0.65]))
    od = group_to_1d(params, [1])
    gw = GammaWeights.from_wf(params)
    rng = generator(17, "ratio")
    for z in rng.random(50) * 0.96 + 0.02:
        assert return_ratio_density(od, float(z)) == pytest.approx(dirichlet_density(gw, [float(z)]), rel=1e-12)


def test_return_ratio_density_integrates_to_one():
    od = OneDimWf(a0=0.7, a1=0.4)
    from rpwf.quadrature import gauss_jacobi_01

    t, w = gauss_jacobi_01(80, 2 * od.a0 - 1, 2 * od.a1 - 1)
    total = float(w @ np.array([return_ratio_density(od, ti) / (ti ** (2 * od.a0 - 1) * (1 - ti) ** (2 * od.a1 - 1)) for ti in t]))
    assert total == pytest.approx(1.0, abs=1e-8)
