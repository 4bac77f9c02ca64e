"""Property tests of the Euler-Maruyama kernel and the simplex projection.

``em_update`` computes the noise Sigma(x) z in O(k) from the factors that
``sigma_batch`` also uses, and ``project_to_simplex`` sums rows one column
at a time.  The examples sweep k in 2..9 over simplex points with zero,
subnormal and tiny components and check that:

* Sigma(x) z agrees with the (M, k, k) matrices of ``sigma_batch``;
* every row of ``em_update`` is >= 0 and sums, sequentially, to exactly 1.0;
* the projection equals its previous ``v.sum(axis=-1)`` form bit for bit
  wherever that form's row sums are sequential (k <= 7);
* no RuntimeWarning (overflow, 0/0) is raised on the way.
"""

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
    assert np.array_equal(em_update(X[0], Z[0], params, dt), out[0])  # a single point is a batch of one


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
