import numpy as np
import pytest
from scipy import stats as scipy_stats

from rpwf.errors import ValidationError
from rpwf.rng import generator
from rpwf.scaling import ScaledFamilyParams, build_family_member
from rpwf.stats import (
    ConvergenceConfig,
    chi_squared_report,
    chi_squared_stat,
    convergence_experiment,
    empirical_mean,
    ks_critical_value,
    ks_one_sample,
    ks_two_sample,
    stationary_urn_samples,
)
from rpwf.urn import simulate_urn
from rpwf.wright_fisher import WfParams

WF2 = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))


def test_chi_squared_perfect_fit():
    assert chi_squared_stat([50, 50], [0.5, 0.5], 100) == 0.0


def test_chi_squared_arithmetic_example():
    assert chi_squared_stat([60, 40], [0.5, 0.5], 100) == pytest.approx(4.0, abs=1e-12)


def test_chi_squared_permutation_invariance():
    rng = generator(3, "chi2")
    O = rng.integers(1, 100, size=4)
    p = rng.dirichlet(np.ones(4))
    N = int(O.sum())
    base = chi_squared_stat(O, p, N)
    perm = rng.permutation(4)
    assert chi_squared_stat(O[perm], p[perm], N) == pytest.approx(base, rel=1e-12)


def test_chi_squared_algebraic_identity():
    rng = generator(5, "chi2-alt")
    O = rng.integers(1, 200, size=3)
    p = rng.dirichlet(np.ones(3))
    N = int(O.sum())
    alt = float(np.sum((O - N * p) ** 2 / (N * p)))
    assert chi_squared_stat(O, p, N) == pytest.approx(alt, abs=1e-12)


def test_chi_squared_rejects_zero_probability():
    with pytest.raises(ValidationError):
        chi_squared_stat([1, 1], [1.0, 0.0], 2)


def test_chi_squared_report_counts():
    rep = chi_squared_report([30, 70], [0.4, 0.6])
    assert rep.N == 100
    assert rep.statistic > 0


def test_empirical_mean_constant_draws():
    means = empirical_mean(np.ones(10, dtype=int))
    assert np.allclose(means, np.ones((10, 1)))
    means2 = empirical_mean(np.array([1, 1, 2, 1]))
    assert np.allclose(means2[-1], [0.75, 0.25])


@pytest.mark.parametrize("draws", [np.eye(3)[[0, 1, 1]], np.array([], dtype=int)])
def test_empirical_mean_rejects_anything_but_colors(draws):
    with pytest.raises(ValidationError) as exc:
        empirical_mean(draws)
    assert exc.value.field == "draws"


def test_empirical_mean_rows_on_simplex():
    traj = simulate_urn(build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 1.0, 2.0]), 0.7)), 500, 9)
    means = empirical_mean(traj.draws)
    assert np.allclose(means.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(means >= 0)


def test_empirical_mean_converges_to_p_at_desk_scale():
    # beta = 0.95, b = (1,1), alpha = 1: |mean - 0.5| < 0.05 at N = 1e5
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.95)
    traj = simulate_urn(build_family_member(fp), 100_000, 101)
    means = empirical_mean(traj.draws)
    assert abs(means[-1, 0] - 0.5) < 0.05


def test_empirical_mean_variance_trend_decreases():
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=0.9)
    traj = simulate_urn(build_family_member(fp), 100_000, 33)
    means = empirical_mean(traj.draws)[:, 0]
    variances = []
    for N in (1000, 10_000, 100_000):
        window = means[N // 10 : N]
        variances.append(window.var())
    assert variances[0] > variances[1] > variances[2]


def test_ks_critical_values_match_tables():
    # asymptotic one-sample table: 1.3581/sqrt(n) at 5%, 1.6276/sqrt(n) at 1%
    for n in (100, 1000):
        assert ks_critical_value(n, 0.05) == pytest.approx(1.3581 / np.sqrt(n), abs=1e-3)
        assert ks_critical_value(n, 0.01) == pytest.approx(1.6276 / np.sqrt(n), abs=1e-3)


def test_ks_two_sample_identical_sets():
    x = np.linspace(0, 1, 50)
    assert ks_two_sample(x, x.copy()).D == 0.0


def test_ks_one_sample_matches_scipy():
    rng = generator(7, "ks1")
    x = rng.random(500)
    ours = ks_one_sample(x, lambda v: v).D
    theirs = scipy_stats.kstest(x, "uniform").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_ks_two_sample_matches_scipy():
    rng = generator(9, "ks2")
    a, b = rng.random(400), rng.random(300) ** 1.1
    ours = ks_two_sample(a, b).D
    theirs = scipy_stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_ks_calibration_under_the_null():
    # uniform samples vs uniform cdf: below the 1% critical value in >= 95%
    passes = 0
    reps = 40
    for s in range(reps):
        x = generator(1000 + s, "ks-cal").random(10_000)
        rep = ks_one_sample(x, lambda v: v)
        passes += rep.D < rep.critical[0.01]
    assert passes >= int(0.95 * reps)


def test_ks_detects_a_shift():
    x = generator(11, "ks-power").random(10_000)
    rep = ks_one_sample(x, lambda v: np.clip(v - 0.2, 0.0, 1.0))
    assert rep.D > rep.critical[0.01]


def test_convergence_experiment_smoke():
    config = ConvergenceConfig(wf=WF2, betas=(0.8, 0.95), times=(0.5,), n_replicas=300, dt=2e-3, seed=5)
    report = convergence_experiment(config)
    arr = np.asarray(report.distances)
    assert arr.shape == (2, 1, 2)
    assert np.all(arr >= 0) and np.all(arr <= 1)
    assert report.critical[0.01] == pytest.approx(ks_critical_value(300, 0.01, 300))
    assert len(report.moment_z) == 2


def test_convergence_experiment_rejects_one_replica_before_running(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr("rpwf.stats.simulate_wf_ensemble", never)
    monkeypatch.setattr("rpwf.stats.simulate_urn_ensemble", never)
    with pytest.raises(ValidationError) as exc:
        convergence_experiment(ConvergenceConfig(wf=WF2, betas=(0.5,), times=(0.1,), n_replicas=1))
    assert exc.value.field == "replicas"


def test_convergence_experiment_reports_infeasible_steps_before_running():
    config = ConvergenceConfig(
        wf=WF2, betas=(0.9999,), times=(10.0,), n_replicas=10, seed=1
    )
    with pytest.raises(ValidationError) as exc:
        convergence_experiment(config)
    assert "steps" in str(exc.value)


def test_convergence_distances_shrink_with_beta():
    config = ConvergenceConfig(wf=WF2, betas=(0.5, 0.97), times=(1.0,), n_replicas=1200, dt=1e-3, seed=17)
    report = convergence_experiment(config)
    assert report.mean_distance(1) < report.mean_distance(0)
    assert report.trend_ok


def test_convergence_keep_samples_round_trip():
    config = ConvergenceConfig(wf=WF2, betas=(0.8,), times=(0.25,), n_replicas=100, dt=2e-3, seed=3)
    report = convergence_experiment(config)
    urn_vals, wf_vals = report.samples[(0, 0)]
    assert urn_vals.shape == (100, 2)
    assert wf_vals.shape == (100, 2)


def test_stationary_urn_samples_shape_and_determinism():
    a = stationary_urn_samples(WF2, beta=0.9, t_long=2.0, n_replicas=50, seed=7)
    b = stationary_urn_samples(WF2, beta=0.9, t_long=2.0, n_replicas=50, seed=7)
    assert a.shape == (50, 2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 2])
def test_stationary_urn_samples_rejects_zero_replicas(workers):
    with pytest.raises(ValidationError) as exc:
        stationary_urn_samples(WF2, beta=0.9, t_long=2.0, n_replicas=0, seed=7, workers=workers)
    assert exc.value.field == "replicas"


def test_marginal_specs_bipartition_for_k3():
    from rpwf.stats import _marginal_specs

    specs = _marginal_specs(3, seed=4)
    assert [name for name, _ in specs][:3] == ["X1", "X2", "X3"]
    assert len(specs) == 4
    sel = specs[-1][1]
    assert 0 < sel.sum() < 3
