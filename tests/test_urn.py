import numpy as np
import pytest

from rpwf.errors import ValidationError
from rpwf.rng import StreamKey, generator
from rpwf.urn import (
    DrawOutcome,
    UrnParams,
    UrnState,
    UrnTrajectory,
    closed_form_B,
    increment_decomposition,
    new_urn,
    predictive_mean,
    psi_closed_form,
    sample_color,
    simulate_urn,
    simulate_urn_ensemble,
    step,
    total_balls,
)


class FixedUniform:
    """Deterministic stand-in for a Generator, yielding queued uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None):
        if n is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(n)])


def make_params(alpha=1.0, beta=0.5, b=(1.0, 1.0), B0=(1.0, 1.0)):
    return UrnParams(alpha=alpha, beta=beta, b=np.array(b), B0=np.array(B0))


def test_new_urn_totals():
    state = new_urn(make_params())
    assert state.n == 0
    assert np.array_equal(state.B, [1.0, 1.0])
    assert state.r_star == 4.0


def test_new_urn_rejects_zero_b_total():
    with pytest.raises(ValidationError) as exc:
        make_params(b=(0.0, 0.0))
    assert exc.value.field == "b"


def test_new_urn_rejects_nonpositive_initial_count():
    with pytest.raises(ValidationError) as exc:
        make_params(B0=(-1.0, 0.0))
    assert exc.value.field == "B0"


def test_new_urn_rejects_bad_alpha_and_beta():
    with pytest.raises(ValidationError) as exc:
        make_params(alpha=0.0)
    assert exc.value.field == "alpha"
    with pytest.raises(ValidationError) as exc:
        make_params(beta=1.5)
    assert exc.value.field == "beta"


def test_predictive_mean_examples():
    p = make_params()
    assert np.allclose(predictive_mean(p, UrnState(0, np.array([5.0, 5.0]), 12.0)), [0.5, 0.5])
    p2 = make_params(b=(1.0, 3.0), B0=(1.0, 1.0))
    state0 = UrnState(0, np.array([0.0, 0.0]), 4.0)
    assert np.allclose(predictive_mean(p2, state0), [0.25, 0.75])
    state = UrnState(0, np.array([2.0, 6.0]), 10.0)
    assert np.allclose(predictive_mean(p, state), [0.3, 0.7], atol=1e-15)


def test_step_beta_zero_forgets_everything():
    p = make_params(beta=0.0, B0=(3.0, 9.0), alpha=2.5)
    state = new_urn(p)
    for u in (0.1, 0.9, 0.5):
        state, outcome = step(p, state, FixedUniform([u]))
        expected = np.zeros(2)
        expected[outcome.index] = 2.5
        assert np.array_equal(state.B, expected)


def test_step_beta_one_is_standard_polya():
    p = make_params(beta=1.0, b=(1.0, 1.0), B0=(0.0, 0.0), alpha=1.0)
    state = new_urn(p)
    state, outcome = step(p, state, FixedUniform([0.2]))
    assert outcome.color == 1
    assert np.array_equal(state.B, [1.0, 0.0])
    assert state.r_star == 3.0


def test_draw_frequencies_match_predictive_mean():
    # frozen state: repeated draws from the same psi, CLT bound at 4 sigma
    p = make_params(b=(1.0, 1.0), B0=(2.0, 6.0))
    state = new_urn(p)
    psi = predictive_mean(p, state)
    rng = generator(11, "freq-test")
    n = 100_000
    u = rng.random(n)
    counts = np.bincount([sample_color(psi, ui) for ui in u], minlength=2)
    for i in range(2):
        se = np.sqrt(psi[i] * (1 - psi[i]) / n)
        assert abs(counts[i] / n - psi[i]) < 4 * se


def test_sample_color_inverse_cdf_order():
    psi = np.array([0.2, 0.0, 0.8])
    assert sample_color(psi, 0.1) == 0
    assert sample_color(psi, 0.25) == 2  # zero-probability middle color is skipped
    assert sample_color(psi, 0.999999) == 2


def test_closed_form_B_empty_sum_is_B0():
    p = make_params(B0=(2.0, 7.0))
    assert np.array_equal(closed_form_B(p, np.array([], dtype=np.int64), 0), [2.0, 7.0])


@pytest.mark.parametrize("draws", [[0], [1, 3], [1.5], [np.nan], [-1, 1]])
def test_closed_form_B_rejects_colors_outside_one_to_k(draws):
    # at k = 2, color 0 used to count as color 2, and 3 raised a bare IndexError
    with pytest.raises(ValidationError) as exc:
        closed_form_B(make_params(B0=(2.0, 7.0)), draws, 1)
    assert exc.value.field == "draws"


def test_closed_form_B_beta_one_counts_draws():
    p = make_params(beta=1.0, b=(1.0, 1.0), B0=(0.5, 0.5))
    traj = simulate_urn(p, 500, 5)
    counts = np.bincount(traj.draws - 1, minlength=2).astype(float)
    expected = p.B0 + counts
    assert np.allclose(closed_form_B(p, traj.draws, 500), expected, atol=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.5, 0.99])
def test_closed_form_B_matches_recursion(beta):
    p = make_params(beta=beta, b=(1.0, 2.0), B0=(0.5, 1.5), alpha=0.7)
    n = 10_000
    traj = simulate_urn(p, n, 17)
    state = new_urn(p)
    rng = StreamKey(17, "urn").generator()
    for _ in range(n):
        state, _ = step(p, state, rng)
    closed = closed_form_B(p, traj.draws, n)
    assert np.max(np.abs(closed - state.B) / np.maximum(np.abs(state.B), 1e-30)) < 1e-9


def test_total_balls_balanced_is_constant():
    # |B0| = alpha/(1-beta) keeps the total frozen
    p = make_params(alpha=1.0, beta=0.5, b=(1.0, 1.0), B0=(1.0, 1.0))
    for n in (0, 1, 5, 50, 1000):
        assert total_balls(p, n) == pytest.approx(4.0, abs=1e-12)


def test_total_balls_geometric_and_linear():
    p = make_params(alpha=1.0, beta=0.5, b=(1.0, 1.0), B0=(1.0, 1.0))
    assert total_balls(p, 1) == pytest.approx(4.0)
    p1 = make_params(alpha=2.0, beta=1.0, b=(1.0, 1.0), B0=(1.0, 1.0))
    assert total_balls(p1, 3) == pytest.approx(10.0)


def test_increment_decomposition_beta_one_has_no_reversion():
    p = make_params(beta=1.0, b=(1.0, 1.0), B0=(1.0, 1.0))
    eps, delta, dM = increment_decomposition(p, new_urn(p), DrawOutcome(1))
    assert eps == 0.0
    assert delta > 0.0
    assert abs(dM.sum()) < 1e-15


def test_increment_decomposition_identity_random_states():
    rng = generator(23, "incr")
    p = UrnParams(alpha=0.8, beta=0.7, b=np.array([0.5, 1.0, 1.5]), B0=np.array([1.0, 2.0, 0.5]))
    state = new_urn(p)
    for _ in range(200):
        psi = predictive_mean(p, state)
        nxt, outcome = step(p, state, rng)
        eps, delta, dM = increment_decomposition(p, state, outcome)
        residual = (predictive_mean(p, nxt) - psi) - (-eps * (psi - p.p) + delta * dM)
        assert np.max(np.abs(residual)) < 1e-12
        state = nxt


def test_martingale_increment_has_zero_conditional_mean():
    p = UrnParams(alpha=1.3, beta=0.4, b=np.array([1.0, 0.5, 2.0]), B0=np.array([0.3, 0.3, 0.3]))
    state = new_urn(p)
    rng = generator(3, "mart")
    for _ in range(50):
        psi = predictive_mean(p, state)
        mean_dM = np.zeros(p.k)
        for c in range(1, p.k + 1):
            mean_dM += psi[c - 1] * (DrawOutcome(c).one_hot(p.k) - psi)
        assert np.max(np.abs(mean_dM)) < 1e-14
        state, _ = step(p, state, rng)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.99, 1.0])
def test_psi_closed_form_matches_recursion(beta):
    p = make_params(beta=beta, b=(1.0, 2.0), B0=(2.0, 1.0), alpha=0.9)
    traj = simulate_urn(p, 300, 29)
    for n in (0, 1, 7, 120, 300):
        assert np.max(np.abs(psi_closed_form(p, traj.draws, n) - traj.psi[n])) < 1e-10


def test_r_star_one_step_recursion():
    p = make_params(beta=0.8, b=(1.0, 1.0), B0=(2.0, 3.0))
    state = new_urn(p)
    rng = generator(31, "rstar")
    for _ in range(2000):
        nxt, _ = step(p, state, rng)
        predicted = state.r_star + (p.beta - 1.0) * state.B.sum() + p.alpha
        assert abs(nxt.r_star - predicted) < 1e-12
        state = nxt


def test_state_total_consistency():
    p = make_params(beta=0.9, B0=(0.5, 1.5))
    state = new_urn(p)
    rng = generator(37, "consistency")
    for _ in range(500):
        state, _ = step(p, state, rng)
        assert abs(state.r_star - (p.b.sum() + state.B.sum())) < 1e-12
        assert np.all(p.b + state.B >= 0.0)


def test_simulate_deterministic_in_seed():
    p = make_params(beta=0.3)
    t1 = simulate_urn(p, 400, 99)
    t2 = simulate_urn(p, 400, 99)
    assert np.array_equal(t1.draws, t2.draws)
    assert np.array_equal(t1.psi, t2.psi)
    t3 = simulate_urn(p, 400, 100)
    assert not np.array_equal(t1.draws, t3.draws)


def test_ensemble_replica_reproduces_single_run():
    p = make_params(beta=0.6)
    ens = simulate_urn_ensemble(p, 120, 4, seed=7, label="urn", checkpoints=[0, 60, 120])
    for i in range(4):
        single = simulate_urn(p, 120, StreamKey(7, "urn", i))
        assert np.array_equal(ens[1][i], single.psi[60])
        assert np.array_equal(ens[2][i], single.psi[120])


def test_trajectory_rows_sum_to_one():
    p = UrnParams(alpha=2.0, beta=0.85, b=np.array([1.0, 2.0, 3.0]), B0=np.array([1.0, 1.0, 1.0]))
    traj = simulate_urn(p, 300, 41)
    assert np.max(np.abs(traj.psi.sum(axis=1) - 1.0)) < 1e-12


def test_ensemble_rows_match_across_noise_blocks():
    # 2050 steps cross a noise-block boundary; 66 replicas cross a fill tile
    p = make_params(beta=0.9, b=(1.0, 0.0, 2.0), B0=(0.5, 1.0, 0.5))
    ens = simulate_urn_ensemble(p, 2050, 66, seed=3, label="urn", checkpoints=[2047, 2048, 2050])
    for i in (0, 63, 64, 65):
        single = simulate_urn(p, 2050, StreamKey(3, "urn", i))
        assert np.array_equal(ens[:, i, :], single.psi[[2047, 2048, 2050]])


def test_negative_steps_rejected():
    p = make_params()
    with pytest.raises(ValidationError) as exc:
        simulate_urn(p, -1, 1)
    assert exc.value.field == "steps"
    with pytest.raises(ValidationError) as exc:
        simulate_urn_ensemble(p, -1, 2, seed=1)
    assert exc.value.field == "steps"


@pytest.mark.parametrize("n_replicas", [0, -2])
def test_ensemble_rejects_fewer_than_one_replica(n_replicas):
    with pytest.raises(ValidationError) as exc:
        simulate_urn_ensemble(make_params(), 10, n_replicas, seed=1)
    assert exc.value.field == "replicas"


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_form_B(make_params(), np.array([1, 2]), 3),
        lambda: closed_form_B(make_params(), np.array([1, 2]), -1),
        lambda: total_balls(make_params(), -1),
    ],
)
def test_closed_forms_reject_a_step_outside_the_draws(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == "n"


def test_trajectory_rejects_psi_of_the_wrong_shape():
    with pytest.raises(ValidationError) as exc:
        UrnTrajectory(params=make_params(), draws=np.array([1, 2]), psi=np.full((2, 2), 0.5), seed=StreamKey(0, "urn"))
    assert exc.value.field == "psi"
