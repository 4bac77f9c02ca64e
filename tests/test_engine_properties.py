"""Property tests of the stream engines ``rng.run_streams`` and ``rng.run_path`` through every model.

``rng.generators``, which builds the engine's streams in one batch, starts
every stream in the PCG64 state of the per-key reference ``key.generator()``.
Each other example checks one of the engine's guarantees on the
Wright-Fisher, 1-d marginal and urn simulators:

* outputs do not depend on the noise block size: shrinking the blocks to a
  few steps, so that blocks and path retirement end mid-run, changes no bit;
* row i of an ensemble equals the single run on stream i at every step,
  for the 1-d values wherever the hand-off to the scalar tail falls;
* first exits, touch flags and stopped values (the exit value, or the last
  one) of the compacting ensemble equal those read off the single path on
  the same stream, wherever the hand-off to the scalar tail falls: at
  n = 0, at the end of the block in which the live count fell to the
  tail's size, or never;
* the plain-float steps equal the vector kernels bit for bit: the 1-d
  step, the urn step (ties of a uniform with a cumulative sum included) and
  the Euler-Maruyama step with its projection (zero and subnormal
  components, a head sum past 1 with tied maxima, nan);
* single paths, which run in those steps through ``rng.run_path``, equal
  ensemble rows, which run in the vector kernels through
  ``rng.run_streams``, so the single-vs-row tests compare the two kernels,
  with small blocks too, so that ``run_path``'s noise chunks end mid-path;
* first exits, touch flags, 1-d values and single paths keep the sha256
  pins of the bytes the vector kernels gave before the scalar steps took
  them over;
* a negative stream index is rejected, naming it;
* a run holds one noise buffer, also when retiring replicas widen a block.

Time steps are powers of two so that the grid times t_j = j dt are exact.
"""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rpwf import rng
from rpwf.errors import ValidationError
from rpwf.rng import StreamKey
from rpwf.simplex import _project_floats, project_to_simplex
from rpwf.urn import UrnParams, _run_urns, _urn_step, simulate_urn, simulate_urn_ensemble
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
from rpwf.wright_fisher import _em_step, _first_exit, _marginal_em, _marginal_step, em_update

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
def urn_params(draw) -> UrnParams:
    """k = 2..5, beta in [0, 1]; b and B0 have zeros, never both at one color."""
    k = draw(st.integers(2, 5))
    counts = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    b = np.array(draw(st.lists(counts, min_size=k, max_size=k)))
    B0 = np.array(draw(st.lists(counts, min_size=k, max_size=k)))
    if not b.sum() > 0:
        b[0] = 1.0
    B0[b + B0 <= 0] = 1.0
    return UrnParams(alpha=draw(st.floats(0.1, 3.0)), beta=draw(st.floats(0.0, 1.0)), b=b, B0=B0)


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


# sha256 of the reference streams ``StreamKey(seed, label, index).generator()`` over every key of
# _PIN_SEEDS x _PIN_LABELS x _PIN_INDICES: each stream's PCG64 state and increment, then its first
# random(), standard_normal() and integers(2**63).  Taken when the reference hashed its key through
# ``rng.seed_sequence`` (numpy 2.4); the batch test above compares ``generators`` only with it.
_PIN_SEEDS = (-(2**65), -(2**63), -5, -1, 0, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**66 - 1)
_PIN_LABELS = ("", "main", "converge-wf", "\u00e9\u2713", "\U0001d4e6\x1f")
_PIN_INDICES = (0, 7, 2**32, 2**40 + 7)
_REFERENCE_STREAMS_SHA = "d6cdf23669800aad953f17e83494fbf27e1b708b195838717b722b3a7b8280b8"


def test_reference_streams_keep_their_states():
    rows = []
    for seed, label, index in itertools.product(_PIN_SEEDS, _PIN_LABELS, _PIN_INDICES):
        g = StreamKey(seed, label, index).generator()
        state = g.bit_generator.state["state"]
        rows.append(f"{state['state']:x} {state['inc']:x} {g.random().hex()} {g.standard_normal().hex()} {int(g.integers(2**63)):x}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == _REFERENCE_STREAMS_SHA


NEGATIVE_INDEX = {
    "generator": lambda key: key.generator(),
    "generators": lambda key: rng.generators([StreamKey(0, "urn", 1), key]),
    "simulate_urn": lambda key: simulate_urn(UrnParams(alpha=1.0, beta=0.5, b=np.ones(2), B0=np.ones(2)), 3, key),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_INDEX))
def test_negative_stream_index_is_rejected_naming_it(name):
    with pytest.raises(ValidationError) as exc:
        NEGATIVE_INDEX[name](StreamKey(0, "urn", -3))
    assert exc.value.field == "index" and "-3" in str(exc.value)


# None, or small (_BLOCK_STEPS, _BLOCK_VALUES), which end the ensemble's noise blocks and the
# single path's noise chunks every few steps
blocks = st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 30)))


@given(wp=wf_params(), dt=dts, n_steps=st.integers(0, 24), m=n_paths, seed=seeds, blocks=blocks)
def test_wf_ensemble_rows_are_single_paths(wp, dt, n_steps, m, seed, blocks):
    params, x0 = wp
    cfg = SdeConfig(dt=dt)
    grid = [j * dt for j in range(n_steps + 1)]
    with pytest.MonkeyPatch.context() as mp:
        if blocks:
            small_blocks(mp, *blocks)
        ens = simulate_wf_ensemble(params, x0, n_steps * dt, cfg, m, seed, label="wf", checkpoints=grid)
        paths = [simulate_wf(params, x0, n_steps * dt, cfg, StreamKey(seed, "wf", i)) for i in range(m)]
    for i, path in enumerate(paths):
        assert np.array_equal(ens[:, i, :], path.X, equal_nan=True)


@given(urn=urn_params(), n_steps=st.integers(0, 24), m=n_paths, seed=seeds, blocks=blocks)
def test_urn_ensemble_rows_are_single_paths(urn, n_steps, m, seed, blocks):
    with pytest.MonkeyPatch.context() as mp:
        if blocks:
            small_blocks(mp, *blocks)
        ens = simulate_urn_ensemble(urn, n_steps, m, seed, checkpoints=range(n_steps + 1))
        paths = [simulate_urn(urn, n_steps, StreamKey(seed, "urn", i)) for i in range(m)]
    for i, path in enumerate(paths):
        assert ens[:, i, :].tobytes() == path.psi.tobytes()


# how many live paths a 1-d run hands to the scalar tail: "never" keeps every row on the vector step,
# "all" hands every row off at n = 0
tails = st.sampled_from(["never", "one", "half", "all"])


def tail_size(tail: str, m: int) -> int:
    return {"never": 0, "one": 1, "half": m // 2, "all": m}[tail]


@given(
    od=one_dim, z0=st.floats(0.0, 1.0), dt=dts, n_steps=st.integers(0, 24), m=n_paths, seed=seeds, blocks=blocks, tail=tails
)
def test_marginal_ensemble_rows_are_single_paths(od, z0, dt, n_steps, m, seed, blocks, tail):
    cfg = SdeConfig(dt=dt)
    with pytest.MonkeyPatch.context() as mp:
        if blocks:
            small_blocks(mp, *blocks)
        mp.setattr(rng, "_SCALAR_TAIL", tail_size(tail, m))
        paths = [simulate_marginal_1d(od, z0, n_steps * dt, cfg, StreamKey(seed, LABEL, i))[1] for i in range(m)]
        values = [marginal_ensemble_values(od, z0, j * dt, dt, m, seed) for j in range(n_steps + 1)]
    for j, v in enumerate(values):
        assert np.array_equal(v, [z[j] for z in paths])


@given(od=one_dim, ab=interval(), dt=dts, n_steps=st.integers(1, 40), m=n_paths, seed=seeds)
def test_first_exit_and_touch_match_single_paths(od, ab, dt, n_steps, m, seed):
    a, z0, b = ab
    tau, hit = marginal_first_passage(od, z0, a, b, dt, m, seed, t_cap=n_steps * dt)
    stopped = _first_exit(od, z0, a, b, n_steps, dt, m, seed)[1]
    touched = marginal_touch_flags(od, z0, a, n_steps * dt, dt, m, seed)
    touched_at_start = marginal_touch_flags(od, z0, b, n_steps * dt, dt, m, seed)  # every path retires at n = 0
    for i in range(m):
        _, z = simulate_marginal_1d(od, z0, n_steps * dt, SdeConfig(dt=dt), StreamKey(seed, LABEL, i))
        out = np.flatnonzero((z <= a) | (z >= b))
        if out.size:
            assert tau[i] == out[0] * dt and hit[i] == (z[out[0]] >= b)
        else:
            assert np.isnan(tau[i]) and not hit[i]
        assert stopped[i].hex() == z[out[0] if out.size else -1].hex()  # the exit value, or the last one
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
    tail=tails,
)
def test_first_exit_hand_off_matches_single_paths(od, ab, dt, n_steps, m, seed, steps, values, tail):
    # small blocks end every few steps, so the hand-off falls on many different steps; "all" hands off at n = 0
    a, z0, b = ab
    t = n_steps * dt
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, steps, values)
        mp.setattr(rng, "_SCALAR_TAIL", tail_size(tail, m))
        tau, hit = marginal_first_passage(od, z0, a, b, dt, m, seed, t_cap=t)
        stopped = _first_exit(od, z0, a, b, n_steps, dt, m, seed)[1]
        touched = marginal_touch_flags(od, z0, a, t, dt, m, seed)
        touched_zero = marginal_touch_flags(od, z0, 0.0, t, dt, m, seed)  # a barrier on the clip
    for i in range(m):
        _, z = simulate_marginal_1d(od, z0, t, SdeConfig(dt=dt), StreamKey(seed, LABEL, i))
        out = np.flatnonzero((z <= a) | (z >= b))
        if out.size:
            assert tau[i] == out[0] * dt and hit[i] == (z[out[0]] >= b)
        else:
            assert np.isnan(tau[i]) and not hit[i]
        assert stopped[i].hex() == z[out[0] if out.size else -1].hex()
        assert touched[i] == (z <= a).any()
        assert touched_zero[i] == (z <= 0.0).any()


unit_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]), st.floats(0.0, 1.0))


@given(
    od=one_dim,
    dt=st.one_of(dts, st.floats(1e-8, 10.0)),
    pairs=st.lists(st.tuples(unit_values, st.floats(-40.0, 40.0)), min_size=1, max_size=20),
)
def test_scalar_step_equals_vector_step(od, dt, pairs):
    z, zn = np.array(pairs).T
    assert _marginal_em(z, zn, od, dt, np.empty((3, z.size + 2))) is z
    step = _marginal_step(od, dt)
    for j, (zj, nj) in enumerate(pairs):
        assert step(zj, nj).hex() == float(z[j]).hex()


class GivenDraws:
    """A generator stand-in whose ``random`` returns the given values, in order."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def random(self, out):
        got, self.values = self.values[: out.size], self.values[out.size :]
        out[...] = got.reshape(out.shape)


@given(urn=urn_params(), us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12), tie=st.integers(0, 4))
def test_scalar_urn_step_equals_vector_step(urn, us, tie):
    # step 1 draws one of the cumulative sums exactly: u < cum is false there, the kernel's rule
    row, step = _urn_step(urn, len(us) + 1)
    us = [row[min(tie, urn.k - 1)], *us]
    vector = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "generators", lambda keys: [GivenDraws(us)])
        _run_urns(urn, len(us), [StreamKey(0)], lambda n, cum: vector.append(cum[0].copy()), rng._BLOCK_VALUES)
    assert np.array(row[:-1]).tobytes() == vector[0].tobytes()
    for n, u in enumerate(us, 1):
        row = step(row, u)
        assert np.array(row[:-1]).tobytes() == vector[n].tobytes()
        assert row[-1] == 1 + sum(u >= c for c in vector[n - 1][:-1])  # the kernel's count of false below


@st.composite
def simplex_point(draw) -> np.ndarray:
    """A point of the simplex, k = 2..5, with components at 0 or 5e-324, or down to 1e-12 near the faces."""
    k = draw(st.integers(2, 5))
    x = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))) ** 4
    for i, v in enumerate(draw(st.lists(st.sampled_from([None, 0.0, 5e-324]), min_size=k, max_size=k))):
        if v is not None:
            x[i] = v
    if not x.max() > 0:
        x[draw(st.integers(0, k - 1))] = 1.0
    return project_to_simplex(x / x.sum())


@given(
    x=simplex_point(),
    rate=st.floats(0.05, 5.0),
    dt=st.floats(1e-4, 0.1),
    seed=seeds,
    scale=st.sampled_from([1.0, 1e3]),
)
@example(x=np.array([1.0, 5e-324, 0.0]), rate=1.0, dt=2.0**-5, seed=3, scale=1.0)
@example(x=np.array([math.nan, 0.5, 0.5]), rate=1.0, dt=0.01, seed=1, scale=1.0)
@example(x=np.array([0.25, 0.25, math.nan, 0.5]), rate=1.0, dt=0.01, seed=1, scale=1.0)
def test_scalar_em_step_equals_em_update(x, rate, dt, seed, scale):
    k = x.size
    params = WfParams(b=rate, alpha=1.0, p=np.arange(1.0, k + 1.0) / (k * (k + 1) / 2))
    z = scale * np.random.default_rng(seed).standard_normal(k)
    want = em_update(x[None], z[None], params, dt)[0]
    got = _em_step(params, dt)(x.tolist(), z.tolist())
    assert np.array(got).tobytes() == want.tobytes()  # nan bits included


# rows whose projected head sums past 1 by rounding, so the overshoot loop runs: at k = 3, and
# with two and three tied largest head components (argmax takes the first)
OVERSHOOT_ROWS = [
    ["0x1.a12ee8cf95c95p-4", "0x1.dee9611917b7ap-1", "0x0.0000000000001p-1022"],
    ["0x1.029063ea58425p-5", "0x1.9d08fd32d8516p-5", "0x1.9d08fd32d8516p-5", "0x1.56e1fc2f8f359p-997"],
    ["0x1.034c4ab62c5b9p-2", "0x1.ed98f00834dacp-4", "0x1.034c4ab62c5b9p-2", "0x1.6aca1e6225248p-6", "0x1.56e1fc2f8f359p-997"],
    ["0x1.603c8c394ed9fp-1", "0x1.603c8c394ed9fp-1", "0x1.603c8c394ed9fp-1", "0x1.2d1145ebf9badp-4", "0x0.0000000000001p-1022"],
]


# a row of 11 components whose sums differ between one column at a time and numpy's pairwise
# summation (np.add.reduce over 8 or more components); the drawn rows of 8-12 components are
# mostly short binary fractions, whose sums agree both ways
PAIRWISE_ROW = [
    "0x1.0cfb3de3b0e2dp-1", "0x1.3db00bd5806d2p-2", "0x1.f17ed305b11c2p-2", "0x1.c76af30d70096p-1",
    "0x1.de3af3a425594p-1", "0x1.6e61dd3220188p-2", "0x1.249f8ed758714p-1", "0x1.4998213104b76p-2",
    "0x1.304817f37063ap-1", "0x1.5a05667a04864p-2", "0x1.9104923f0aea4p-2",
]


@given(
    v=st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan])), min_size=2, max_size=12
    )
)
@example(v=[float.fromhex(h) for h in OVERSHOOT_ROWS[0]])
@example(v=[float.fromhex(h) for h in PAIRWISE_ROW])
@example(v=[math.nan, -0.5, 0.5])
def test_scalar_projection_equals_vector_projection(v):
    assume(any(x > 0.0 or x != x for x in v))  # a row with a positive part, as every step's row has
    assert np.array(_project_floats(v)).tobytes() == project_to_simplex(np.array(v)).tobytes()


@pytest.mark.parametrize("row", OVERSHOOT_ROWS)
def test_scalar_projection_after_head_overshoot(row):
    v = [float.fromhex(h) for h in row]
    assert reduce(add, [x / reduce(add, v) for x in v[:-1]]) > 1.0  # the sequential sums the projection takes
    got = _project_floats(v)
    assert np.array(got).tobytes() == project_to_simplex(np.array(v)).tobytes()
    assert reduce(add, got[:-1]) <= 1.0


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


# sha256 of single paths as the vector kernels gave them, 2050 steps, so that a 2048-step noise
# chunk ends mid-path; the urn has a zero in B0, the EM paths start on a face and the 1-d path
# near 0, so that the projection clamps and the clip acts (those paths have exact zeros)
PIN_DT = 2.0**-8
PIN_URN = UrnParams(alpha=1.0, beta=0.9, b=np.array([0.5, 1.0, 2.0]), B0=np.array([0.0, 3.0, 0.0]))
PIN_WF = {
    2: (WfParams(b=0.2, alpha=1.0, p=np.array([0.3, 0.7])), [1.0, 0.0]),
    5: (WfParams(b=0.5, alpha=1.0, p=np.array([0.1, 0.2, 0.3, 0.15, 0.25])), [0.5, 0.5, 0.0, 0.0, 0.0]),
}
SINGLE_PATH_PINS = {
    ("urn", 7): "cd2c9af08744cab5e3c18bdbd06e3066fc9c6da05eb2cc5382afc5a7294ad5bf",
    ("urn", 2026): "40282ec70b343aeb2e4dd1bee3635a2511aa186537678a970a91a3a344fca755",
    ("wf2", 7): "e24c28e5e82f68df2da85449f712879dc755a2da92503e8d2306394fafeb4612",
    ("wf2", 2026): "0a0be95979a22277d25191985d0495838c5802d9361469b8c0d889450290dc00",
    ("wf5", 7): "6b9e2ef8ff241eb3f1b6d2f60f68cfeaba9e980e6f670c881d3d5963e2d70a8c",
    ("wf5", 2026): "57e0e5f29fa97b036c67a985cc690eae954194e0d5f0f40586d6b6d61a58a77b",
    ("1d", 7): "c84a17051574d92c6a6797060b1e37811e849203a220fa6af0eb58487a4f4434",
    ("1d", 2026): "27e0d859661422ffab32027892ffdd95b287bbcb4981f259efebc160cd1c7067",
}


@pytest.mark.parametrize("model, seed", sorted(SINGLE_PATH_PINS))
def test_single_path_bytes_are_pinned(model, seed):
    if model == "urn":
        traj = simulate_urn(PIN_URN, 2050, seed)
        values = [traj.psi, traj.draws]
    elif model == "1d":
        values = [simulate_marginal_1d(OneDimWf(a0=0.05, a1=0.5), 1e-3, 2050 * PIN_DT, SdeConfig(dt=PIN_DT), seed)[1]]
    else:
        params, x0 = PIN_WF[int(model[2:])]
        values = [simulate_wf(params, x0, 2050 * PIN_DT, SdeConfig(dt=PIN_DT), seed).X]
    assert len(values[0]) == 2051 and (model == "urn" or (values[0] == 0.0).any())
    assert hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest() == SINGLE_PATH_PINS[model, seed]


# sha256 of marginal ensemble values as the vector step gave them, for all paths at or below the
# scalar tail's size (20) and above it (200), at the single paths' 1-d pin settings: 2050 steps, so
# that a 2048-step noise block ends mid-run, from z0 = 1e-3, so that the clip acts (exact zeros)
VALUES_PINS = {
    (20, 7): "6208734b99c5e2128cfa715b361b5d4bc4f908182832f3c7a9969eaa27ada4d0",
    (200, 2026): "39d19ccced7f22d6e79052ea0c9b4444f9dcf28b43a2ec43ac0a68b1d45d9c3a",
}


@pytest.mark.parametrize("m, seed", sorted(VALUES_PINS))
def test_marginal_ensemble_value_bytes_are_pinned(m, seed):
    values = marginal_ensemble_values(OneDimWf(a0=0.05, a1=0.5), 1e-3, 2050 * PIN_DT, PIN_DT, m, seed)
    assert values.shape == (m,) and (values == 0.0).any()
    assert hashlib.sha256(values.tobytes()).hexdigest() == VALUES_PINS[m, seed]


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


def test_one_noise_buffer_per_run(monkeypatch):
    # 300 replicas fill 2^16-value blocks of 218 steps; retiring 50 of them after step 1 makes the next
    # block wider (262 x 250 > 218 x 300), and it must fit in the run's one buffer, not a second block
    monkeypatch.setattr(rng, "_BLOCK_VALUES", 1 << 16)
    keys = [StreamKey(3, "buffer", i) for i in range(300)]

    def peak_bytes(observe):
        tracemalloc.start()
        try:
            rng.run_streams(keys, 600, np.zeros(300), lambda x, z: x + z, observe, budget=rng._BLOCK_VALUES)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    steady = peak_bytes(lambda n, x: None)
    retiring = peak_bytes(lambda n, x: np.arange(250) if n == 1 else None)
    assert retiring - steady < 8 * rng._BLOCK_VALUES / 10
