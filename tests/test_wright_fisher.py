import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rpwf.errors import ValidationError
from rpwf.rng import StreamKey, generator
from rpwf.simplex import SIMPLEX_ATOL, check_reduced, check_simplex
from rpwf.scaling import Partition
from rpwf.stats import ks_critical_value, ks_two_sample
from rpwf.wright_fisher import (
    OneDimWf,
    SdeConfig,
    WfParams,
    _marginal_em,
    drift,
    em_update,
    marginal_ensemble_values,
    marginal_first_passage,
    marginal_touch_flags,
    mean_ode,
    sigma,
    sigma_batch,
    simulate_marginal_1d,
    simulate_wf,
    simulate_wf_ensemble,
)

from helpers import random_simplex_points

P2 = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))


def test_sigma_half_half_exact():
    S = sigma([0.5, 0.5])
    assert np.array_equal(S, np.array([[0.5, 0.0], [-0.5, 0.0]]))
    assert np.allclose(S @ S.T, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_sigma_vertex_is_zero():
    assert np.all(sigma(np.array([1.0, 0.0])) == 0.0)
    assert np.all(sigma(np.array([0.0, 0.0, 1.0])) == 0.0)


def test_sigma_zero_component_rows_and_columns_exact_zero():
    x = np.array([0.3, 0.0, 0.7])
    S = sigma(x)
    assert np.all(S[1, :] == 0.0)
    assert np.all(S[:, 1] == 0.0)
    assert np.abs(S @ S.T - (np.diag(x) - np.outer(x, x))).max() < 1e-15


def test_sigma_factorization_random_points():
    rng = generator(5, "sigma")
    for k in range(2, 7):
        X = random_simplex_points(k, 200, rng)
        S = sigma_batch(X)
        target = np.einsum("mi,ij->mij", X, np.eye(k)) - np.einsum("mi,mj->mij", X, X)
        assert np.abs(np.einsum("mij,mkj->mik", S, S) - target).max() < 1e-12
        assert np.abs(S.sum(axis=1)).max() < 1e-12
        # strictly lower-triangular above the diagonal
        for i in range(k):
            assert np.all(S[:, i, i + 1 :] == 0.0)


def test_sigma_batch_finite_at_subnormal_component_before_zeros():
    x = np.array([1.0, 5e-324, 0.0])
    S = sigma_batch(x[None, :])[0]
    assert np.all(np.isfinite(S))
    assert np.abs(S @ S.T - (np.diag(x) - np.outer(x, x))).max() < 1e-15


def test_simulate_wf_from_subnormal_component_stays_finite():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.3, 0.3, 0.4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = simulate_wf(params, [1.0, 5e-324, 0.0], 0.05, SdeConfig(dt=2**-5))
    assert np.all(np.isfinite(path.X))


def test_sigma_rejects_off_simplex():
    with pytest.raises(ValidationError):
        sigma(np.array([0.5, 0.6]))


@pytest.mark.parametrize("p", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan], [math.inf, 0.5]])
def test_params_reject_non_finite_mutation_kernel(p):
    # every comparison with nan is false, so the checks once accepted WfParams(1, 1, [nan, 0.5])
    with pytest.raises(ValidationError) as exc:
        WfParams(b=1.0, alpha=1.0, p=np.array(p))
    assert exc.value.field == "p"


@pytest.mark.parametrize("field, value", [("b", math.inf), ("alpha", math.inf), ("b", math.nan), ("alpha", -1.0)])
def test_params_reject_non_finite_scales(field, value):
    # b = inf or alpha = inf passed, and rate b/alpha came out inf or 0
    with pytest.raises(ValidationError) as exc:
        WfParams(**{"b": 1.0, "alpha": 1.0, field: value}, p=np.array([0.5, 0.5]))
    assert exc.value.field == field


@pytest.mark.parametrize("y", [[math.nan], [0.2, math.nan], [math.inf, 0.0], [-math.inf, 0.5]])
def test_check_reduced_rejects_non_finite_points(y):
    with pytest.raises(ValidationError) as exc:
        check_reduced(y, "y")
    assert exc.value.field == "y"


_shifts = st.lists(st.floats(-SIMPLEX_ATOL, SIMPLEX_ATOL), min_size=6, max_size=6)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6), _shifts)
@example([0.6, 0.4, 0.0], [0.0, 5e-11, 0.0, 0.0, 0.0, 0.0])  # rpwf density --b 1,1,1 --y 0.6,0.40000000005,0
def test_check_reduced_accepts_the_head_of_every_simplex_point(weights, shifts):
    # a simplex point moved by at most SIMPLEX_ATOL per component.  With a last component
    # >= 0 the head sums to at most the full sum; a negative one lets it reach 1 + 2 SIMPLEX_ATOL.
    assume(sum(weights) > 0)
    x = [w / sum(weights) + d for w, d in zip(weights, shifts)]
    assume(x[-1] >= 0.0)
    try:
        check_simplex(x, "x")
    except ValidationError:
        assume(False)
    assert check_reduced(x[:-1], "y").tolist() == x[:-1]


def test_drift_fixed_point_and_unit_rate():
    assert np.allclose(drift(P2.p, P2), [0.0, 0.0], atol=1e-16)
    x = np.array([0.3, 0.7])
    assert np.allclose(drift(x, P2), P2.p - x, atol=1e-15)


def test_drift_example_and_zero_sum():
    params = WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))
    d = drift(np.array([0.75, 0.25]), params)
    assert np.allclose(d, [-0.5, 0.5], atol=1e-15)
    rng = generator(7, "drift")
    X = random_simplex_points(4, 100, rng)
    params4 = WfParams(b=1.5, alpha=2.0, p=np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.abs(drift(X, params4).sum(axis=1)).max() < 1e-14


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_mean_ode_rejects_negative_and_nan_times(t):
    # t = nan returned NaN
    with pytest.raises(ValidationError):
        mean_ode(P2, [0.3, 0.7], t)


def test_em_update_zero_noise_at_fixed_point():
    out = em_update(P2.p[None, :], np.zeros((1, 2)), P2, 1e-3)[0]  # a single point is a batch of one
    assert np.allclose(out, P2.p, atol=1e-15)
    assert out.sum() == 1.0


def test_em_update_simplex_closure_bulk():
    rng = generator(9, "closure")
    X = random_simplex_points(3, 1000, rng)
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))
    for _ in range(100):
        X = em_update(X, rng.standard_normal(X.shape), params, 1e-2)
        assert np.all(X >= 0.0)
        assert np.all(X.sum(axis=1) == 1.0)


def test_em_one_step_mean_matches_drift():
    # finite-difference consistency: E[x' - x]/dt -> drift as dt -> 0
    x = np.array([0.3, 0.7])
    dt = 1e-3
    m = 400_000
    rng = generator(13, "em-mean")
    Z = rng.standard_normal((m, 2))
    out = em_update(np.tile(x, (m, 1)), Z, P2, dt)
    observed = (out.mean(axis=0) - x) / dt
    se = out.std(axis=0, ddof=1) / math.sqrt(m) / dt
    assert np.all(np.abs(observed - drift(x, P2)) < 4 * se + 1e-9)


def test_mean_ode_examples():
    x0 = np.array([1.0, 0.0])
    assert np.allclose(mean_ode(P2, x0, 0.0), x0)
    assert np.allclose(mean_ode(P2, x0, 200.0), P2.p, atol=1e-12)
    expected = np.array([0.5 + 0.5 * math.exp(-1.0), 0.5 - 0.5 * math.exp(-1.0)])
    assert np.allclose(mean_ode(P2, x0, 1.0), expected, atol=1e-12)


def test_simulate_wf_zero_horizon():
    path = simulate_wf(P2, [0.4, 0.6], 0.0, SdeConfig(dt=1e-2), 3)
    assert path.X.shape == (1, 2)
    assert np.allclose(path.X[0], [0.4, 0.6])


def test_simulate_wf_deterministic_in_seed():
    a = simulate_wf(P2, [0.4, 0.6], 0.2, SdeConfig(dt=1e-2), 42)
    b = simulate_wf(P2, [0.4, 0.6], 0.2, SdeConfig(dt=1e-2), 42)
    assert np.array_equal(a.X, b.X)


def test_ensemble_replica_matches_single_path():
    cfg = SdeConfig(dt=1e-2)
    ens = simulate_wf_ensemble(P2, [0.3, 0.7], 0.5, cfg, 3, seed=21, label="wf", checkpoints=[0.5])
    for i in range(3):
        single = simulate_wf(P2, [0.3, 0.7], 0.5, cfg, StreamKey(21, "wf", i))
        assert np.array_equal(ens[0][i], single.X[-1])


def test_monte_carlo_mean_tracks_ode():
    x0 = np.array([0.9, 0.1])
    cfg = SdeConfig(dt=1e-3)
    vals = simulate_wf_ensemble(P2, x0, 2.0, cfg, 10_000, seed=31, checkpoints=[0.5, 1.0, 2.0])
    for j, t in enumerate([0.5, 1.0, 2.0]):
        target = mean_ode(P2, x0, t)
        mean = vals[j].mean(axis=0)
        se = vals[j].std(axis=0, ddof=1) / math.sqrt(vals[j].shape[0])
        # cushion for the O(dt) weak bias of the Euler scheme
        assert np.all(np.abs(mean - target) < 3 * se + 1e-3)


def test_entrance_parameters_keep_components_positive():
    # 2 b min(p)/alpha = 4 >= 1: no component reaches 0
    params = WfParams(b=4.0, alpha=1.0, p=np.array([0.5, 0.5]))
    rng_keys = [StreamKey(77, "wf-pos", i) for i in range(1000)]
    X = np.tile(params.p, (1000, 1))
    gens = [k.generator() for k in rng_keys]
    dt = 1e-3
    ok = True
    for _ in range(1000):
        Z = np.stack([g.standard_normal(2) for g in gens])
        X = em_update(X, Z, params, dt)
        ok = ok and np.all(X > 0.0)
    assert ok


def test_marginal_zero_noise_fixed_point():
    od = OneDimWf(a0=0.3, a1=0.3)
    z = np.array([0.5])
    for _ in range(10):
        z = _marginal_em(z, np.zeros(1), od, 1e-2, np.empty((3, 1)))
    assert z[0] == pytest.approx(0.5, abs=1e-15)


def test_marginal_path_stays_in_unit_interval():
    od = OneDimWf(a0=0.2, a1=0.4)
    t, z = simulate_marginal_1d(od, 0.9, 5.0, SdeConfig(dt=1e-3), 5)
    assert t.shape == z.shape
    assert np.all(z >= 0.0) and np.all(z <= 1.0)


def test_grouped_wf_agrees_with_low_dimensional_wf():
    # Summing a k=4 path over J = {1, 3} is indistinguishable from a 2-d
    # simulation with grouped parameters, and from the 1-d marginal SDE.
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.2, 0.3, 0.1, 0.4]))
    cfg = SdeConfig(dt=1e-3)
    t_check = 1.0
    vals4 = simulate_wf_ensemble(params, params.p, t_check, cfg, 2000, seed=51, checkpoints=[t_check])[0]
    grouped = vals4[:, 0] + vals4[:, 2]
    pj = params.p[0] + params.p[2]

    params2 = WfParams(b=params.b, alpha=params.alpha, p=np.array([pj, 1.0 - pj]))
    vals2 = simulate_wf_ensemble(params2, params2.p, t_check, cfg, 2000, seed=53, checkpoints=[t_check])[0]
    rep2 = ks_two_sample(grouped, vals2[:, 0])
    assert rep2.D < rep2.critical[0.01]

    od = OneDimWf(a0=params.rate * pj, a1=params.rate * (1 - pj))
    direct = marginal_ensemble_values(od, pj, t_check, 1e-3, 2000, seed=52)
    rep1 = ks_two_sample(grouped, direct)
    assert rep1.D < rep1.critical[0.01]


def test_grouping_commutes_with_projection_for_the_wf_ensemble():
    # Summing a k=4 ensemble over the partition {1,2},{3,4} gives, in law, the
    # k=2 diffusion with the grouped mutation kernel (0.3, 0.7), at every checkpoint.
    cfg = SdeConfig(dt=1e-2)
    p4 = WfParams(b=1.0, alpha=1.0, p=np.array([0.1, 0.2, 0.3, 0.4]))
    p2 = WfParams(b=1.0, alpha=1.0, p=np.array([0.3, 0.7]))
    x4 = simulate_wf_ensemble(p4, [0.3, 0.3, 0.2, 0.2], 0.5, cfg, 2000, seed=5, label="k4", checkpoints=[0.25, 0.5])
    x2 = simulate_wf_ensemble(p2, [0.6, 0.4], 0.5, cfg, 2000, seed=5, label="k2", checkpoints=[0.25, 0.5])
    grouped = x4 @ Partition([[1, 2], [3, 4]]).matrix().T
    crit = ks_critical_value(2000, 1e-6, 2000)  # 0.085; distances were <= 0.04 over five seeds
    for j in range(2):
        assert ks_two_sample(grouped[j][:, 0], x2[j][:, 0]).D < crit


def test_marginal_stationary_matches_beta_law():
    from rpwf.boundary import stationary_beta_cdf
    from rpwf.stats import ks_one_sample

    od = OneDimWf(a0=0.6, a1=0.9)
    vals = marginal_ensemble_values(od, 0.4, 30.0, 1e-3, 1000, seed=61)
    report = ks_one_sample(vals, stationary_beta_cdf(od))
    assert report.D < report.critical[0.05]


@pytest.mark.parametrize("checkpoints", [[-1.0], [0.5, 0.5 + 1e-3], [float("nan")]])
def test_ensemble_rejects_checkpoints_outside_horizon(checkpoints):
    # a negative checkpoint used to return uninitialised rows, a late one the value at t_max
    with pytest.raises(ValidationError) as exc:
        simulate_wf_ensemble(P2, [0.3, 0.7], 0.5, SdeConfig(dt=1e-2), 2, seed=1, checkpoints=checkpoints)
    assert exc.value.field == "checkpoints"


OD = OneDimWf(a0=0.3, a1=0.7)
_BAD_INPUTS = {
    "wf_ensemble_no_paths": ("replicas", lambda: simulate_wf_ensemble(P2, [0.5, 0.5], 0.1, SdeConfig(dt=1e-2), 0, seed=1)),
    "values_no_paths": ("replicas", lambda: marginal_ensemble_values(OD, 0.5, 0.1, 1e-2, 0, seed=1)),
    "values_negative_paths": ("replicas", lambda: marginal_ensemble_values(OD, 0.5, 0.1, 1e-2, -3, seed=1)),
    "touch_no_paths": ("replicas", lambda: marginal_touch_flags(OD, 0.5, 0.2, 0.1, 1e-2, 0, seed=1)),
    "passage_no_paths": ("replicas", lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, 1e-2, 0, seed=1)),
    "values_dt_zero": ("dt", lambda: marginal_ensemble_values(OD, 0.5, 0.1, 0.0, 3, seed=1)),
    "touch_dt_zero": ("dt", lambda: marginal_touch_flags(OD, 0.5, 0.2, 0.1, 0.0, 3, seed=1)),
    "passage_dt_zero": ("dt", lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, 0.0, 3, seed=1)),
    "values_dt_negative": ("dt", lambda: marginal_ensemble_values(OD, 0.5, 0.1, -1e-3, 3, seed=1)),
    "passage_dt_negative": ("dt", lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, -1e-3, 3, seed=1)),
    "values_z0_below": ("z0", lambda: marginal_ensemble_values(OD, -0.1, 0.1, 1e-2, 3, seed=1)),
    "values_z0_above": ("z0", lambda: marginal_ensemble_values(OD, 1.5, 0.1, 1e-2, 3, seed=1)),
    "touch_z0_above": ("z0", lambda: marginal_touch_flags(OD, 1.5, 0.2, 0.1, 1e-2, 3, seed=1)),
    "path_negative_t_max": ("t-max", lambda: simulate_marginal_1d(OD, 0.5, -1.0, SdeConfig(dt=1e-2), 1)),
    "passage_negative_t_cap": ("t-cap", lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, 1e-2, 3, seed=1, t_cap=-1.0)),
    "passage_infinite_t_cap": ("t-cap", lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, 1e-2, 3, seed=1, t_cap=math.inf)),
    "values_infinite_t": ("t", lambda: marginal_ensemble_values(OD, 0.5, math.inf, 1e-2, 3, seed=1)),
    "values_infinite_dt": ("dt", lambda: marginal_ensemble_values(OD, 0.5, 0.1, math.inf, 3, seed=1)),
    "path_infinite_t_max": ("t-max", lambda: simulate_wf(P2, [0.5, 0.5], math.inf, SdeConfig(dt=1e-2))),
    "path_nan_t_max": ("t-max", lambda: simulate_marginal_1d(OD, 0.5, math.nan, SdeConfig(dt=1e-2), 1)),
    "config_infinite_dt": ("dt", lambda: SdeConfig(dt=math.inf)),
    "marginal_negative_a1": ("a1", lambda: OneDimWf(a0=0.3, a1=-1.0)),
    "marginal_nan_a0": ("a0", lambda: OneDimWf(a0=math.nan, a1=0.3)),
    # a nan barrier is never crossed, so it is rejected by name, not read as one that no path reaches
    "touch_nan_level": ("level", lambda: marginal_touch_flags(OD, 0.5, math.nan, 0.1, 1e-2, 3, seed=1)),
    "passage_nan_a": ("a", lambda: marginal_first_passage(OD, 0.5, math.nan, 0.8, 1e-2, 3, seed=1)),
    "passage_nan_b": ("b", lambda: marginal_first_passage(OD, 0.5, 0.2, math.nan, 1e-2, 3, seed=1)),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_simulators_reject_bad_inputs_by_name(case):
    field, call = _BAD_INPUTS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == field


@pytest.mark.parametrize("x", [[0.5], [0.2, 0.3, 0.5], 0.5])
def test_drift_and_mean_ode_reject_a_point_of_another_k(x):
    # at k = 2, [0.5] was broadcast to a 2-vector; 3 coordinates raised numpy's broadcast ValueError
    with pytest.raises(ValidationError) as exc:
        drift(x, P2)
    assert exc.value.field == "x"
    with pytest.raises(ValidationError) as exc:
        mean_ode(P2, x, 1.0)
    assert exc.value.field == "x0"


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: WfParams(b=1.0, alpha=1.0, p=np.array([1.0, 0.0])), "p"),
        (lambda: marginal_first_passage(OneDimWf(0.5, 0.5), 0.9, 0.2, 0.8, 1e-3, 10, 1), "z0"),
        (lambda: marginal_first_passage(OneDimWf(0.5, 0.5), 0.2, 0.2, 0.8, 1e-3, 10, 1), "z0"),
        (lambda: check_simplex([1.0], "x0"), "x0"),
    ],
)
def test_model_rejections_name_their_field(call, field):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == field
