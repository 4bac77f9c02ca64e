import contextlib
import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rpwf.boundary import (
    BoundaryType,
    IntervalProblem,
    _panel_nodes,
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
from rpwf.cli import main
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
    for bad in (-0.1, math.nan):  # a NaN fails every comparison: it used to fall through to ENTRANCE
        with pytest.raises(ValidationError):
            classify_boundary(bad)


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


@st.composite
def _half_edge(draw):
    """(params, J), k = 2..4: b built from alpha and p so that (b/alpha) sum_J p lies within a few ulp of 1/2."""
    k = draw(st.integers(2, 4))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    J = draw(st.lists(st.integers(1, k), min_size=1, max_size=k - 1, unique=True))
    alpha = draw(st.floats(0.1, 10.0))
    p = w / w.sum()
    b = 0.5 * alpha / float(sum(p[c - 1] for c in sorted(J)))
    shift = draw(st.integers(-4, 4))
    for _ in range(abs(shift)):
        b = math.nextafter(b, math.copysign(math.inf, shift))
    return WfParams(b=b, alpha=alpha, p=p), J


@example((WfParams(b=2.2635601129436655, alpha=4.373389916782771, p=np.array([0.9660423621565233, 0.03395763784347672])), [1]))
@given(_half_edge())
def test_boundary_answers_follow_one_rule_at_the_half_edge(tmp_path_factory, edge):
    # in the example a0 rounds to 1/2 while p_1 < alpha / (2 b): a second statement of the rule, as
    # that comparison, printed "recessive": true and "dominant_colors": [1, 2] beside an entrance at 0
    params, J = edge
    entrance = lambda a: classify_boundary(a) is BoundaryType.ENTRANCE
    assert is_recessive(params, J) == (not entrance(group_to_1d(params, J).a0))
    for i in range(1, params.k + 1):
        assert is_dominant(params, i) == (not entrance(group_to_1d(params, [i]).a1))
    out = tmp_path_factory.mktemp("edge") / "b.json"
    floats = lambda v: ",".join(repr(float(x)) for x in v)
    argv = ["boundary", f"--b={params.b!r}", f"--alpha={params.alpha!r}", f"--p={floats(params.p)}"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--j=" + ",".join(map(str, J)), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["a0"] == group_to_1d(params, J).a0
    assert report["recessive"] == (report["boundary_at_0"] != "entrance")
    if J == [1]:
        assert (1 in report["dominant_colors"]) == (report["boundary_at_1"] != "entrance")


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


# sha256 of scale_increment over every ordered (z1, z2) of _Z, ends included, for every (a0, a1) of _A,
# computed before the tails at 0 and 1 became one routine (numpy 2.4, scipy 1.17)
_A = (0.05, 0.3, 0.49, 0.7, 1.2)
_Z = (0.0, 1e-3, 0.2, 0.5, 0.75, 0.999, 1.0)
_SCALE_GRID_SHA = "13a8e24a692bf7f01af895fb540887f56f6cf2b593afbf0577930eb781133bf2"


def test_scale_increment_keeps_its_bytes_on_a_grid_with_both_ends():
    vals = [scale_increment(OneDimWf(a0, a1), z1, z2) for a0, a1 in itertools.product(_A, _A) for z1, z2 in itertools.product(_Z, _Z)]
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == _SCALE_GRID_SHA


# sha256 of scale_increment's outcome (the result's bits, or the field a ValidationError names)
# from an end at 0 or 1 to every z of _TAIL_Z, both ways, for every (a0, a1) of _TAIL_A: the Gauss-Jacobi
# tails at both ends, subnormal z included.  Taken when ``_endpoint_tail`` called SciPy's
# ``roots_jacobi`` itself (numpy 2.4, scipy 1.17).
_TAIL_A = (0.0, 1e-300, 0.05, 0.3, 0.49, 0.4999999999, 0.5, 0.7)
_TAIL_Z = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-16, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1 - 1e-16, 1 - 2**-53, 0.0, 1.0)
_TAIL_SHA = "dc06bd41b8278994a66266185737adc7e583de744d2e8d79771573901e8d2bce"


def test_scale_increment_keeps_its_bytes_from_either_end():
    outcomes = [
        _outcome(lambda: scale_increment(OneDimWf(a0, a1), z1, z2))
        for a0, a1 in itertools.product(_TAIL_A, _TAIL_A)
        for end in (0.0, 1.0)
        for z in _TAIL_Z
        for z1, z2 in ((end, z), (z, end))
    ]
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == _TAIL_SHA


_dyadic = st.integers(0, 1024).map(lambda i: i / 1024)  # 1 - z is exact


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5), _dyadic, _dyadic)
def test_scale_increment_is_symmetric_under_reflection(a0, a1, z1, z2):
    # z -> 1 - z swaps the ends, and a0 with a1
    want = scale_increment(OneDimWf(a0, a1), z1, z2)
    got = scale_increment(OneDimWf(a1, a0), 1.0 - z2, 1.0 - z1)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    # a start on a barrier has exited: no mass to the far side, no time and no cost before the exit
    for a0, a1 in ((0.3, 0.7), (20.0, 10.0)):
        ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=0.2, b_pt=0.8)
        assert hitting_prob(ip, 0.2) == 0.0
        assert hitting_prob(ip, 0.8) == 1.0
        for z0 in (0.2, 0.8):
            assert mean_exit_time(ip, z0) == 0.0
            assert expected_cost_scale_form(ip, z0, lambda s: 1.0 + s) == 0.0
    ip = IntervalProblem(od=OneDimWf(a0=0.3, a1=0.7), a=0.2, b_pt=0.8)
    us = [hitting_prob(ip, z) for z in np.linspace(0.2, 0.8, 13)]
    assert np.all(np.diff(us) > 0)
    with pytest.raises(ValidationError):
        hitting_prob(ip, 0.1)


def test_hitting_prob_symmetric_midpoint():
    ip = IntervalProblem(od=OneDimWf(a0=0.4, a1=0.4), a=0.25, b_pt=0.75)
    assert hitting_prob(ip, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_hitting_prob_invariant_under_scale_frame():
    # scale_function's frame is S(1/2) = 0 with unit slope factor; every affine image c + m S gives the same ratio
    od = OneDimWf(a0=0.3, a1=0.6)
    a, b, z0 = 0.2, 0.8, 0.45
    assert scale_function(od, 0.5) == 0.0
    S_a, S_z0, S_b = (scale_function(od, z) for z in (a, z0, b))
    ratios = [((c + m * S_z0) - (c + m * S_a)) / ((c + m * S_b) - (c + m * S_a)) for c, m in ((0.0, 1.0), (4.0, 2.5), (-1.0, 0.1))]
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


@pytest.mark.parametrize(
    "a0, a1, a, b, z0",
    [(0.3, 0.7, 0.2, 0.8, 0.5), (0.1, 0.2, 0.05, 0.9, 0.3), (1.5, 0.4, 0.3, 0.6, 0.45), (200.0, 200.0, 0.25, 0.75, 0.6)],
)
def test_expected_cost_is_the_per_node_green_function_sum(a0, a1, a, b, z0):
    # reference: green_function summed node by node; expected_cost shares the
    # z0-side scale integral between nodes and must equal it bit for bit
    ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=a, b_pt=b)
    g = lambda s: 1.0 + 0.5 * math.sin(3 * s)
    total = 0.0
    for lo, hi in ((a, z0), (z0, b)):
        s, w = _panel_nodes(lo, hi)
        total += float(w @ np.array([green_function(ip, z0, si) * g(si) for si in s]))
    assert expected_cost(ip, z0, g) == total


@pytest.mark.parametrize("a", [150.0, 200.0])
def test_mean_exit_time_finite_at_large_symmetric_coefficients(a):
    # the Green function's product of two scale increments used to overflow to inf
    ip = IntervalProblem(od=OneDimWf(a0=a, a1=a), a=0.25, b_pt=0.75)
    w = mean_exit_time(ip, 0.5)
    assert math.isfinite(w)
    assert w == pytest.approx(expected_cost_scale_form(ip, 0.5, lambda s: 1.0), rel=1e-8)


def test_scale_integral_keeps_its_bytes_below_overflow():
    ip = IntervalProblem(od=OneDimWf(a0=210.0, a1=210.0), a=0.25, b_pt=0.75)
    assert hitting_prob(ip, 0.5) == 0.5
    assert mean_exit_time(ip, 0.5) == 4.6320038471753387e48


@pytest.mark.parametrize(
    "a0, a1, field", [(215.0, 215.0, "a0"), (220.0, 220.0, "a0"), (250.0, 250.0, "a0"), (3.0, 300.0, "a1"), (240.0, 300.0, "a1")]
)
def test_scale_integral_overflow_raises_naming_the_coefficient(a0, a1, field):
    # t^{-2 a0} (1-t)^{-2 a1} overflows a float on (1/4, 3/4) from a0 = a1 = 215 on; the results were nan.
    # At (240, 300) the integral over (1/4, 1/2) overflows too, naming a0: every function names (1/4, 3/4)'s a1
    ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=0.25, b_pt=0.75)
    for result in (
        lambda: hitting_prob(ip, 0.5),
        lambda: mean_exit_time(ip, 0.5),
        lambda: expected_cost_scale_form(ip, 0.5, lambda s: 1.0),
    ):
        with pytest.raises(ValidationError) as info:
            result()
        assert info.value.field == field


def test_scale_increment_endpoint_tail_overflow_raises():
    # the Jacobi tail at 0 evaluates (1-t)^{-2 a1}, which overflowed with a RuntimeWarning
    with pytest.raises(ValidationError) as info:
        scale_increment(OneDimWf(a0=0.3, a1=1500.0), 0.0, 0.5)
    assert info.value.field == "a1"


@pytest.mark.parametrize(
    "a0, a1, want",
    [(50.0, 30.0, 3.754091405884478), (200.0, 150.0, 5.624e19), (200.0, 3.0, 9.4262e-4)],
)
def test_scale_form_keeps_lower_weight_when_upper_hit_is_near_certain(a0, a1, want):
    # the lower integral's weight (S(b)-S(z0))/(S(b)-S(a)) is ~1e-19 here; as
    # 1 - P(hit b) it rounded to 0 and dropped a lower integral of ~1e19
    ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=0.25, b_pt=0.75)
    w = expected_cost_scale_form(ip, 0.7, lambda s: 1.0)
    assert w == pytest.approx(mean_exit_time(ip, 0.7), rel=1e-8)
    assert w == pytest.approx(want, rel=1e-4)


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
    work = np.empty((3, n_paths))
    for _ in range(500):  # blocks of 1000 steps until every path has exited
        if not alive.any():
            break
        zn = np.stack([gen.standard_normal(1000) for gen in gens], axis=0)
        for s in range(1000):
            cost[alive] += g(z[alive]) * dt
            z[alive] = _marginal_em(z[alive], zn[alive, s], od, dt, work)
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


def _outcome(f) -> str:
    """The result's bits as hex, or the field a ValidationError names."""
    try:
        return f().hex()
    except ValidationError as err:
        return f"ValidationError:{err.field}"


_PIN_A = (0.0, 0.3, 0.7, 20.0, 150.0)
_PIN_CASES = [
    *((a0, a1, a, b, z0) for a0, a1 in itertools.product(_PIN_A, _PIN_A) for a, b, z0 in ((0.2, 0.8, 0.5), (0.05, 0.3, 0.1))),
    (200.0, 150.0, 0.25, 0.75, 0.7),
    (200.0, 3.0, 0.25, 0.75, 0.7),
]


def _interval_outcomes() -> list[str]:
    g = lambda s: 1.0 + 0.5 * math.sin(3 * s)
    out = []
    for a0, a1, a, b, z0 in _PIN_CASES:
        ip = IntervalProblem(od=OneDimWf(a0=a0, a1=a1), a=a, b_pt=b)
        out += [
            _outcome(lambda: hitting_prob(ip, z0)),
            _outcome(lambda: mean_exit_time(ip, z0)),
            _outcome(lambda: green_function(ip, z0, 0.5 * (a + z0))),  # x > s
            _outcome(lambda: green_function(ip, z0, 0.5 * (z0 + b))),  # x <= s
            _outcome(lambda: expected_cost_scale_form(ip, z0, g)),
        ]
    return out


# sha256 of _interval_outcomes, taken when each of the four functions computed its own scale ratios
_INTERVAL_SHA = "38cbe96d42303ca9daca903ace9f6ecd7077f94f50183a089c2f617342455d29"


def test_interval_problems_keep_their_bits():
    assert hashlib.sha256("\n".join(_interval_outcomes()).encode()).hexdigest() == _INTERVAL_SHA


_WF3 = WfParams(b=1.0, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))
_OD = OneDimWf(0.3, 0.3)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: is_dominant(_WF3, 0), "i"),
        (lambda: is_dominant(_WF3, 4), "i"),
        (lambda: group_to_1d(_WF3, [1, 4]), "j"),
        (lambda: is_recessive(_WF3, [0]), "j"),
        (lambda: scale_increment(_OD, -0.1, 0.5), "z1"),
        (lambda: scale_increment(_OD, 0.5, 1.5), "z2"),
        (lambda: scale_function(_OD, 0.0), "z"),
        (lambda: scale_function(_OD, 1.0), "z"),
        (lambda: speed_density(_OD, 0.0), "z"),
        (lambda: speed_density(_OD, 1.0), "z"),
        (lambda: return_ratio_density(_OD, 0.0), "z0"),
        (lambda: return_ratio_density(_OD, 1.0), "z0"),
    ],
)
def test_boundary_rejections_name_their_field(call, field):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == field


@pytest.mark.parametrize("a0, a1, field", [(0.5, 0.0, "a1"), (0.0, 0.5, "a0"), (0.0, 0.0, "a0")])
def test_return_ratio_density_names_the_zero_coefficient(a0, a1, field):
    # a zero a1 used to be reported as a0
    with pytest.raises(ValidationError) as exc:
        return_ratio_density(OneDimWf(a0, a1), 0.3)
    assert exc.value.field == field


def test_group_mass_counts_a_repeated_color_once():
    assert group_to_1d(_WF3, [3, 1, 3]) == group_to_1d(_WF3, [1, 3])
    assert is_recessive(_WF3, [1, 1]) == is_recessive(_WF3, [1])
