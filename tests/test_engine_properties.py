"""Property tests of the stream engine ``rng.run_streams`` through every model.

``rng.generators``, which builds the engine's streams in one batch, starts
every stream in the PCG64 state of the per-key reference ``key.generator()``.
Each other example checks one of the engine's guarantees on the
Wright-Fisher, 1-d marginal and urn simulators:

* outputs do not depend on the noise block size: shrinking the blocks to a
  few steps, so that blocks and path retirement end mid-run, changes no bit;
* row i of an ensemble equals the single run on stream i at every step;
* first exits and touch flags of the compacting ensemble equal those read
  off the single path on the same stream, wherever the hand-off to the
  scalar tail falls: at n = 0, at the end of the block in which the live
  count fell to the tail's size, or never;
* the scalar tail's step equals the vector 1-d step bit for bit;
* first exits and touch flags keep the sha256 pins of the bytes the
  engine gave before it had a scalar tail.

Time steps are powers of two so that the grid times t_j = j dt are exact.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rpwf import rng
from rpwf.rng import StreamKey
from rpwf.urn import UrnParams, simulate_urn_ensemble
from rpwf.wright_fisher import (
    OneDimWf,
    SdeConfig,
    WfParams,
    marginal_ensemble_values,
    marginal_first_passage,
    marginal_touch_flags,
    simulate_marginal_1d,
    simulate_wf,
    simulate_wf_ensemble,
)
from rpwf.wright_fisher import _exit_step, _marginal_em

LABEL = "wf1d"  # the stream label of the marginal entry points

seeds = st.integers(0, 2**32 - 1)
dts = st.sampled_from([2.0**-3, 2.0**-5])
n_paths = st.integers(1, 4)
one_dim = st.builds(OneDimWf, a0=st.floats(0.0, 1.5), a1=st.floats(0.0, 1.5))


@st.composite
def wf_params(draw) -> tuple[WfParams, np.ndarray]:
    k = draw(st.integers(2, 4))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    params = WfParams(b=draw(st.floats(0.1, 3.0)), alpha=draw(st.floats(0.2, 2.0)), p=w / w.sum())
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    x0 = x / x.sum() if x.sum() > 0 else params.p.copy()
    return params, x0


@st.composite
def interval(draw) -> tuple[float, float, float]:
    z0 = draw(st.floats(0.05, 0.95))
    return z0 - draw(st.floats(0.01, 0.3)), z0, z0 + draw(st.floats(0.01, 0.3))


stream_keys = st.builds(
    StreamKey,
    seed=st.one_of(st.integers(-(2**63), -1), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    label=st.text(),
    index=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**40)),
)


def small_blocks(mp: pytest.MonkeyPatch, steps: int, values: int) -> None:
    mp.setattr(rng, "_BLOCK_STEPS", steps)
    mp.setattr(rng, "_BLOCK_VALUES", values)


@given(keys=st.lists(stream_keys, max_size=12))
@example(keys=[])
@example(keys=[StreamKey(-1, "", 2**32), StreamKey(2**64 - 1, "\u00e9\u2713", 0), StreamKey(0, "wf", 2**40), StreamKey(2**33, "urn", 5)])
def test_generators_start_in_the_reference_states(keys):
    # a seed or an index >= 2**32 adds an entropy word, so the batches mix 6-, 7- and 8-word keys
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gens = rng.generators(keys)
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        ref = key.generator()
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random() == ref.random()
        assert gen.standard_normal() == ref.standard_normal()


@given(wp=wf_params(), dt=dts, n_steps=st.integers(0, 24), m=n_paths, seed=seeds)
def test_wf_ensemble_rows_are_single_paths(wp, dt, n_steps, m, seed):
    params, x0 = wp
    cfg = SdeConfig(dt=dt)
    grid = [j * dt for j in range(n_steps + 1)]
    ens = simulate_wf_ensemble(params, x0, n_steps * dt, cfg, m, seed, label="wf", checkpoints=grid)
    for i in range(m):
        path = simulate_wf(params, x0, n_steps * dt, cfg, StreamKey(seed, "wf", i))
        assert np.array_equal(ens[:, i, :], path.X, equal_nan=True)


@given(od=one_dim, z0=st.floats(0.0, 1.0), dt=dts, n_steps=st.integers(0, 24), m=n_paths, seed=seeds)
def test_marginal_ensemble_rows_are_single_paths(od, z0, dt, n_steps, m, seed):
    paths = [simulate_marginal_1d(od, z0, n_steps * dt, SdeConfig(dt=dt), StreamKey(seed, LABEL, i))[1] for i in range(m)]
    for j in range(n_steps + 1):
        assert np.array_equal(marginal_ensemble_values(od, z0, j * dt, dt, m, seed), [z[j] for z in paths])


@given(od=one_dim, ab=interval(), dt=dts, n_steps=st.integers(1, 40), m=n_paths, seed=seeds)
def test_first_exit_and_touch_match_single_paths(od, ab, dt, n_steps, m, seed):
    a, z0, b = ab
    tau, hit = marginal_first_passage(od, z0, a, b, dt, m, seed, t_cap=n_steps * dt)
    touched = marginal_touch_flags(od, z0, a, n_steps * dt, dt, m, seed)
    touched_at_start = marginal_touch_flags(od, z0, b, n_steps * dt, dt, m, seed)  # every path retires at n = 0
    for i in range(m):
        _, z = simulate_marginal_1d(od, z0, n_steps * dt, SdeConfig(dt=dt), StreamKey(seed, LABEL, i))
        out = np.flatnonzero((z <= a) | (z >= b))
        if out.size:
            assert tau[i] == out[0] * dt and hit[i] == (z[out[0]] >= b)
        else:
            assert np.isnan(tau[i]) and not hit[i]
        assert touched[i] == (z <= a).any()
        assert touched_at_start[i]


@given(
    od=one_dim,
    ab=interval(),
    dt=dts,
    n_steps=st.integers(1, 40),
    m=st.integers(1, 8),
    seed=seeds,
    steps=st.integers(1, 4),
    values=st.integers(1, 30),
    tail=st.sampled_from(["never", "one", "half", "all"]),
)
def test_first_exit_hand_off_matches_single_paths(od, ab, dt, n_steps, m, seed, steps, values, tail):
    # small blocks end every few steps, so the hand-off falls on many different steps; "all" hands off at n = 0
    a, z0, b = ab
    t = n_steps * dt
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, steps, values)
        mp.setattr(rng, "_SCALAR_TAIL", {"never": 0, "one": 1, "half": m // 2, "all": m}[tail])
        tau, hit = marginal_first_passage(od, z0, a, b, dt, m, seed, t_cap=t)
        touched = marginal_touch_flags(od, z0, a, t, dt, m, seed)
    for i in range(m):
        _, z = simulate_marginal_1d(od, z0, t, SdeConfig(dt=dt), StreamKey(seed, LABEL, i))
        out = np.flatnonzero((z <= a) | (z >= b))
        if out.size:
            assert tau[i] == out[0] * dt and hit[i] == (z[out[0]] >= b)
        else:
            assert np.isnan(tau[i]) and not hit[i]
        assert touched[i] == (z <= a).any()


unit_values = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]), st.floats(0.0, 1.0))


@given(
    od=one_dim,
    dt=st.one_of(dts, st.floats(1e-8, 10.0)),
    pairs=st.lists(st.tuples(unit_values, st.floats(-40.0, 40.0)), min_size=1, max_size=20),
)
def test_scalar_step_equals_vector_step(od, dt, pairs):
    z, zn = np.array(pairs).T
    assert _marginal_em(z, zn, od, dt, np.empty((3, z.size + 2))) is z
    step = _exit_step(od, dt, -math.inf, math.inf, None)  # never exits
    for j, (zj, nj) in enumerate(pairs):
        assert step(j, 1, zj, nj).hex() == float(z[j]).hex()


# sha256 of the engine's bytes before the scalar tail, 200 paths at dt = 1e-3 over 2500 steps:
# the live count falls to the tail's size mid-way through the first 2048-step block, the tail
# takes over at its end, reads the 452 steps past it and keeps censored paths (8-13 in first
# exits, 8-12 untouched)
FIRST_EXIT_PINS = {
    3: (
        "28d1f99b3627f0fcb70034b4cd4d027d40a2b3917f74f14c2ed9dbc1ca4ab394",
        "d0bcb4748880903a9f355b6e332b4f9fcf88497f9fb1b1fb8d88a90f2157dd92",
    ),
    2026: (
        "0221190d8b10d862051c9e7ca3d32c0ce1dd8164b41424dde5b9a51056e54ad7",
        "1decf1355c5b35e08da0e19d19d5cf1e3480c8276835e988a4131c0644dbd127",
    ),
}


@pytest.mark.parametrize("seed", sorted(FIRST_EXIT_PINS))
def test_first_exit_bytes_are_pinned(seed):
    od = OneDimWf(a0=0.3, a1=0.7)
    tau, hit = marginal_first_passage(od, 0.5, 0.1, 0.9, 1e-3, 200, seed, t_cap=2.5)
    touched = marginal_touch_flags(od, 0.5, 0.3, 2.5, 1e-3, 200, seed)
    assert 8 <= np.isnan(tau).sum() and 8 <= (~touched).sum()
    got = hashlib.sha256(tau.tobytes() + hit.tobytes()).hexdigest(), hashlib.sha256(touched.tobytes()).hexdigest()
    assert got == FIRST_EXIT_PINS[seed]


@given(
    wp=wf_params(),
    od=one_dim,
    ab=interval(),
    dt=dts,
    n_steps=st.integers(0, 30),
    m=st.integers(1, 6),
    seed=seeds,
    steps=st.integers(1, 4),
    values=st.integers(1, 30),
)
def test_outputs_do_not_depend_on_block_size(wp, od, ab, dt, n_steps, m, seed, steps, values):
    params, x0 = wp
    a, z0, b = ab
    urn = UrnParams(alpha=1.0, beta=0.7, b=params.p, B0=x0)
    t = n_steps * dt

    def run():
        return [
            simulate_wf_ensemble(params, x0, t, SdeConfig(dt=dt), m, seed, checkpoints=[0.0, t / 2, t]),
            simulate_urn_ensemble(urn, n_steps, m, seed, checkpoints=[0, n_steps // 2, n_steps]),
            marginal_ensemble_values(od, z0, t, dt, m, seed),
            *marginal_first_passage(od, z0, a, b, dt, m, seed, t_cap=t),
            marginal_touch_flags(od, z0, a, t, dt, m, seed),
        ]

    expected = run()
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, steps, values)
        got = run()
    for e, g in zip(expected, got):
        assert np.array_equal(e, g, equal_nan=e.dtype.kind == "f")
