"""Property tests of the urn simulators over the parameter space.

Each example draws k in 2..5, beta in [0, 1] (both ends included), alpha > 0,
fixed ball counts b with some zero components and a valid B0, then checks
the ensemble and single-path simulators against each other, against the
closed forms and against the ball-count ``step`` recursion.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rpwf.rng import StreamKey
from rpwf.urn import UrnParams, new_urn, psi_closed_form, simulate_urn, simulate_urn_ensemble, step

LABEL = "urn-prop"


@st.composite
def urn_params(draw) -> UrnParams:
    k = draw(st.integers(2, 5))
    beta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    alpha = draw(st.floats(0.05, 5.0))
    b = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 5.0)), min_size=k, max_size=k)))
    if not b.sum() > 0:
        b[draw(st.integers(0, k - 1))] = 1.0
    # B0 may be negative as long as every b_i + B0_i stays positive
    excess = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))
    return UrnParams(alpha=alpha, beta=beta, b=b, B0=excess - b)


@given(
    params=urn_params(),
    n_steps=st.integers(0, 40),
    n_replicas=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_urn_simulators_agree(params, n_steps, n_replicas, seed):
    steps = list(range(n_steps + 1))
    ens = simulate_urn_ensemble(params, n_steps, n_replicas, seed, label=LABEL, checkpoints=steps)
    assert np.all(ens >= 0.0)
    assert np.max(np.abs(ens.sum(axis=2) - 1.0)) <= 1e-12
    for i in range(n_replicas):
        key = StreamKey(seed, LABEL, i)
        traj = simulate_urn(params, n_steps, key)
        # row i of the ensemble is the single run on stream i, bit for bit
        assert np.array_equal(ens[:, i, :], traj.psi)
        for n in steps:
            assert np.max(np.abs(psi_closed_form(params, traj.draws, n) - traj.psi[n])) <= 1e-10
        # the ball-count recursion draws the same colors from the same stream
        state, rng = new_urn(params), key.generator()
        for color in traj.draws:
            state, outcome = step(params, state, rng)
            assert outcome.color == color
