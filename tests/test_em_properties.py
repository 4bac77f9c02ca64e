"""Property tests of the Euler-Maruyama kernel and the simplex projection.

``em_update`` computes the noise Sigma(x) z in O(k) from the factors that
``sigma_batch`` also uses, and ``project_to_simplex`` sums rows one column
at a time.  The examples sweep k in 2..9 over simplex points with zero,
subnormal and tiny components and check that:

* Sigma(x) z agrees with the (M, k, k) matrices of ``sigma_batch``;
* every row of ``em_update`` is >= 0 and sums, sequentially, to exactly 1.0;
* the projection equals its previous ``v.sum(axis=-1)`` form bit for bit
  wherever that form's row sums are sequential (k <= 7);
* no RuntimeWarning (overflow, 0/0) is raised on the way;
* the component-major arithmetic returns the bytes of the former (M, k)
  row-major arithmetic, kept verbatim below as the oracle, for C-ordered,
  F-ordered, transposed-view and strided inputs and for a batch of one.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rpwf.simplex import project_to_simplex
from rpwf.wright_fisher import WfParams, _sigma_z, em_update, sigma_batch

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([0.0, 1.0, 5.0])


def sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums added left to right, the order ``project_to_simplex`` uses."""
    return reduce(np.add, rows.T)


@st.composite
def simplex_batch(draw, k_max: int = 9) -> np.ndarray:
    """Up to 4 simplex points of one k; some components are 0, 5e-324 or tiny."""
    k = draw(st.integers(2, k_max))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        x = w / w.sum()
        small = draw(st.lists(st.sampled_from([None, 0.0, 5e-324, 1e-300, 1e-12]), min_size=k, max_size=k))
        for i, v in enumerate(small):
            if v is not None:
                x[i] = v
        if not x.sum() > 0.5:  # every component was made small
            x[draw(st.integers(0, k - 1))] = 1.0
        rows.append(x)
    return np.array(rows)


def normals(seed: int, shape, scale: float) -> np.ndarray:
    return scale * np.random.default_rng(seed).standard_normal(shape)


@given(simplex_batch(), seeds, scales)
@example(np.array([[1.0, 5e-324, 0.0]]), 3, 1.0)
def test_sigma_z_matches_sigma_batch(X, seed, scale):
    Z = normals(seed, X.shape, scale)
    got = _sigma_z(X, Z)
    want = np.einsum("mij,mj->mi", sigma_batch(X), Z)
    bound = 1e-15 * (1.0 + np.linalg.norm(Z, axis=1))
    assert np.all(np.abs(got - want) <= bound[:, None])


@given(simplex_batch(), seeds, scales, st.sampled_from([1e-4, 1e-2, 0.25]), st.floats(0.1, 5.0))
@example(np.array([[1.0, 5e-324, 0.0]]), 3, 1.0, 2.0**-5, 1.0)
def test_em_update_rows_stay_on_simplex(X, seed, scale, dt, rate):
    k = X.shape[1]
    params = WfParams(b=rate, alpha=1.0, p=np.arange(1.0, k + 1.0) / (k * (k + 1) / 2))
    Z = normals(seed, X.shape, scale)
    out = em_update(X, Z, params, dt)
    assert np.all(out >= 0.0)
    assert np.all(sequential_sum(out) == 1.0)
    assert np.array_equal(em_update(X[:1], Z[:1], params, dt), out[:1])  # a single point is a batch of one


def previous_projection(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projection's former main path and the rows it covered (head <= 1)."""
    v = np.maximum(v, 0.0)
    v = v / v.sum(axis=-1, keepdims=True)
    last = 1.0 - v[..., :-1].sum(axis=-1)
    v[..., -1] = last
    return v, last >= 0.0


@given(simplex_batch(k_max=7), seeds, st.sampled_from([1e-3, 0.1, 1.0]), st.booleans())
def test_projection_matches_previous_row_sums(X, seed, scale, clamp_last):
    V = X + normals(seed, X.shape, scale)
    V[:, 0] = np.abs(V[:, 0]) + 1e-3  # at least one component survives the clamp
    if clamp_last:  # a clamped last component puts the head sum within rounding of 1
        V[:, -1] = -1.0
    out = project_to_simplex(V)
    assert np.all(out >= 0.0)
    assert np.all(sequential_sum(out) == 1.0)
    ref, covered = previous_projection(V)
    assert np.array_equal(out[covered], ref[covered])


def test_projection_head_overshoot_sums_exactly():
    # the normalised head of this vector sums to 1 + 2**-52 before the correction
    v = np.array([0.4196247418739411, 1.0393168129695851, 0.9241276288349506, 0.15990265491500472, -0.01])
    out = project_to_simplex(v)
    assert np.all(out >= 0.0)
    assert sequential_sum(out[None, :])[0] == 1.0
    assert np.abs(out - np.maximum(v, 0.0) / np.maximum(v, 0.0).sum()).max() < 1e-15


# ---------------------------------------------------------------- layout oracle
# The (M, k) row-major arithmetic that em_update, project_to_simplex and
# sigma_batch ran on before they moved to component-major rows, op for op
# (em_update's helpers inlined).  Every element must still see the same
# operations in the same order.


def oracle_sigma_factors(X):
    S_next = np.zeros_like(X)
    for j in range(X.shape[1] - 2, -1, -1):
        np.add(S_next[:, j + 1], X[:, j + 1], out=S_next[:, j])
    S = S_next + X
    diag = X * S_next
    np.divide(diag, S, out=diag, where=S > 0)
    np.sqrt(np.maximum(diag, 0.0, out=diag), out=diag)
    col = np.divide(diag, S_next, out=np.zeros_like(X), where=S_next > 0)
    return diag, col


def oracle_sigma_batch(X):
    X = np.asarray(X, dtype=float)
    M, k = X.shape
    diag, col = oracle_sigma_factors(X)
    out = np.zeros((M, k, k))
    li, lj = np.tril_indices(k, k=-1)
    out[:, li, lj] = -X[:, li] * col[:, lj]
    idx = np.arange(k)
    out[:, idx, idx] = diag
    return out


def oracle_row_sums(rows):
    return reduce(np.add, rows.T[1:], rows[:, 0].copy())


def oracle_project(v):
    shape = np.shape(v)
    rows = np.maximum(np.asarray(v, dtype=float), 0.0).reshape(-1, shape[-1])
    rows /= oracle_row_sums(rows)[:, None]
    head = oracle_row_sums(rows[:, :-1])
    bad = np.flatnonzero(head > 1.0)
    while bad.size:
        w = rows[bad]
        w[np.arange(bad.size), w[:, :-1].argmax(axis=1)] -= head[bad] - 1.0
        rows[bad] = w
        head[bad] = oracle_row_sums(w[:, :-1])
        bad = bad[head[bad] > 1.0]
    rows[:, -1] = 1.0 - head
    return rows.reshape(shape)


def oracle_em_update(x, z, params, dt):
    xb = np.asarray(x, dtype=float)
    zb = np.asarray(z, dtype=float)
    diag, col = oracle_sigma_factors(xb)
    cz = col * zb
    run = np.zeros_like(cz)
    for i in range(1, xb.shape[1]):
        np.add(run[:, i - 1], cz[:, i - 1], out=run[:, i])
    noise = math.sqrt(dt) * (diag * zb - xb * run)
    return oracle_project(xb + -params.rate * (xb - params.p) * dt + noise)


def same_bytes(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed view": lambda A: np.ascontiguousarray(A.T).T,
    "strided view": lambda A: np.repeat(A, 2, axis=0)[::2],
}


@st.composite
def simplex_rows(draw) -> np.ndarray:
    """M in 1..64 simplex points of one k in 2..9; some components are 0, 5e-324 or 1e-300."""
    k, m = draw(st.integers(2, 9)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(seeds))
    X = rng.dirichlet(np.full(k, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=m)
    small = rng.random(X.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    X[small] = rng.choice([0.0, 5e-324, 1e-300], size=int(small.sum()))
    lost = ~(X.sum(axis=1) > 0.5)  # every large component was made small
    X[lost, rng.integers(0, k, size=int(lost.sum()))] = 1.0
    return X


@given(simplex_rows(), seeds, scales, st.sampled_from([1e-4, 1e-2, 0.25]), st.floats(0.1, 5.0))
@example(np.array([[1.0, 5e-324, 0.0]]), 3, 1.0, 2.0**-5, 1.0)
def test_layouts_return_the_row_major_bytes(X, seed, scale, dt, rate):
    k = X.shape[1]
    params = WfParams(b=rate, alpha=1.0, p=np.arange(1.0, k + 1.0) / (k * (k + 1) / 2))
    Z = normals(seed, X.shape, scale)
    V = X + normals(seed + 1, X.shape, 0.3)
    V[:, 0] = np.abs(V[:, 0]) + 1e-3  # at least one component survives the clamp
    want_em, want_proj, want_sigma = oracle_em_update(X, Z, params, dt), oracle_project(V), oracle_sigma_batch(X)
    for layout in LAYOUTS.values():
        x, z, v = layout(X), layout(Z), layout(V)
        assert same_bytes(em_update(x, z, params, dt), want_em)
        assert same_bytes(project_to_simplex(v), want_proj)
        assert same_bytes(sigma_batch(x), want_sigma)
        assert np.array_equal(x, X) and np.array_equal(z, Z) and np.array_equal(v, V)  # inputs untouched
    for i in range(X.shape[0]):
        assert same_bytes(em_update(X[i : i + 1], Z[i : i + 1], params, dt), oracle_em_update(X[i : i + 1], Z[i : i + 1], params, dt))
        assert same_bytes(project_to_simplex(V[i]), oracle_project(V[i]))
    V3 = V.reshape(1, *V.shape)  # a batch with more than one leading axis
    assert same_bytes(project_to_simplex(V3), oracle_project(V3))
