"""Property tests of the spectral transition density over the parameter space.

Each example draws k in {2, ..., 5}, b/alpha in [0.15, 3] (both sides of the
recessive threshold 1/2), an interior mutation kernel p, interior points and
t in [0.3, 4], then checks unit mass on the Gauss simplex rule (exact for
the truncated kernel at every k), detailed balance against the stationary
Dirichlet density, and agreement with the symbolic product-Jacobi basis.

The call-sequence property checks the evaluator's caches (the table of
distinct Jacobi factors, the memoised basis row of y0 and the memoised
exp(-nu t)) against a plain per-multi-index evaluation kept verbatim in
this file, and against a fresh evaluator, bit for bit.  The error-path
property gives ``evaluate`` exactly one bad argument and checks that it
fails as an ``evaluate`` that checks y0 on every call, also kept verbatim
here, fails.
"""

import copy
import math
import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from rpwf.errors import ValidationError
from rpwf.polynomials import (
    GammaWeights,
    _jacobi_factor_params,
    basis_jacobi,
    eigenvalue_nu,
    jacobi_product_norm_sq_log,
    multi_indices,
    supported_degree_cap,
)
from rpwf.quadrature import simplex_rule
from rpwf.spectral import (
    SMALL_T_THRESHOLD,
    SpectralTransitionDensity,
    TransitionDensity,
    default_max_degree,
    dirichlet_density,
)
from rpwf.wright_fisher import WfParams


def interior(k: int):
    """Full simplex points whose coordinates are all at least 0.05 / k."""
    weights = st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
    return weights.map(lambda w: np.array(w) / sum(w))


@st.composite
def cases(draw):
    k = draw(st.integers(2, 5))
    rate = draw(st.floats(0.15, 3.0))
    params = WfParams(b=rate, alpha=1.0, p=draw(interior(k)))
    y0, y = draw(interior(k))[:-1], draw(interior(k))[:-1]
    return params, y0, y, draw(st.floats(0.3, 4.0))


@given(cases())
def test_density_has_unit_mass_on_gauss_rule(case):
    params, y0, _, t = case
    S = SpectralTransitionDensity(params)
    gw = S.gw
    # Gauss order per axis that integrates the degree-max_degree kernel exactly
    pts, w = simplex_rule(gw, 40 if params.k == 2 else S.max_degree + 1)
    kernel = np.array([S(y0, y, t) / dirichlet_density(gw, y) for y in pts])
    assert abs(float(w @ kernel) - 1.0) < 1e-8


@given(cases())
def test_density_satisfies_detailed_balance(case):
    params, x, y, t = case
    S = SpectralTransitionDensity(params)
    lhs = dirichlet_density(S.gw, x) * S(x, y, t)
    rhs = dirichlet_density(S.gw, y) * S(y, x, t)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@given(cases(), st.integers(0, 4))
def test_density_matches_symbolic_basis_route(case, max_degree):
    params, y0, y, t = case
    S = SpectralTransitionDensity(params, max_degree)
    gw = GammaWeights.from_wf(params)
    kernel = 0.0
    for deg in range(max_degree + 1):
        for n in multi_indices(params.k - 1, deg):
            f = basis_jacobi(n, gw)
            kernel += math.exp(-eigenvalue_nu(deg, params) * t) * f(y) * f(y0)
    symbolic = dirichlet_density(gw, y) * kernel
    assert abs(S(y0, y, t) - symbolic) <= 1e-10 * max(1.0, abs(symbolic))


class PerMultiIndexOracle:
    """Every factor of every multi-index evaluated on its own, then multiplied out per multi-index.

    The table build, ``_normalized_values`` and the arithmetic of
    ``evaluate`` are those of the evaluator before it kept a table of
    distinct factors and a memo of y0's row; the stationary factor is the
    Dirichlet density of an interior point, written out.
    """

    def __init__(self, params, max_degree):
        self.gw = GammaWeights.from_wf(params)
        k = params.k
        self.max_degree = default_max_degree(k) if max_degree is None else int(max_degree)
        by_degree = [multi_indices(k - 1, n) for n in range(self.max_degree + 1)]
        indices = [n for idx in by_degree for n in idx]
        self._starts = np.cumsum([0] + [len(idx) for idx in by_degree[:-1]])
        self._n = np.array(indices, dtype=np.int64).T
        ab = np.array([[_jacobi_factor_params(n, self.gw, i) for n in indices] for i in range(k - 1)], dtype=float)
        self._a, self._b = ab[..., 0], ab[..., 1]
        self._inv_norm = np.array([math.exp(-0.5 * jacobi_product_norm_sq_log(n, self.gw)) for n in indices])
        self._nu = np.array([eigenvalue_nu(n, params) for n in range(self.max_degree + 1)])

    def _normalized_values(self, y):
        remaining = 1.0 - np.concatenate([[0.0], np.cumsum(y[:-1])])
        x = (2.0 * y / remaining - 1.0)[:, None]
        factors = remaining[:, None] ** self._n * special.eval_jacobi(self._n, self._a, self._b, x)
        return self._inv_norm * factors.prod(axis=0)

    def _stationary(self, y):
        coords = np.concatenate([y, [1.0 - y.sum()]])
        g = np.array([float(v) for v in self.gw.gamma])
        log_const = sum(math.lgamma(x + 1.0) for x in g) - math.lgamma(sum(g) + len(g))
        return math.exp(float(g @ np.log(coords)) - log_const)

    def evaluate(self, y0, y, t):
        stat = self._stationary(y)
        per_degree = np.add.reduceat(self._normalized_values(y) * self._normalized_values(y0), self._starts)
        kernel_terms = per_degree * np.exp(-self._nu * t)
        total = stat * kernel_terms.sum()
        tail = abs(stat * kernel_terms[-1]) if self.max_degree >= 1 else 0.0
        warn = bool(tail > 1e-6 * max(abs(total), 1e-300))
        return total, tail, warn, bool(t < SMALL_T_THRESHOLD)


def _bits(value, tail, warn, small_t):
    return float(value).hex(), float(tail).hex(), warn, small_t


# (k, b/alpha) with p uniform where factors of different index share (n_i, a_i, b_i):
# at k = 4, b/alpha = 4 factor 1 of (0, 1, 1) equals factor 0 of (1, 0, 0)
LATTICE = [(4, 4.0), (5, 2.5), (5, 5.0)]


@st.composite
def call_sequences(draw):
    if draw(st.booleans()):
        k, rate = draw(st.sampled_from(LATTICE))
        p = np.full(k, 1.0 / k)
    else:
        k, rate = draw(st.integers(2, 5)), draw(st.floats(0.15, 4.0))
        p = draw(interior(k))
    params = WfParams(b=rate, alpha=1.0, p=p)
    max_degree = draw(st.none() | st.integers(0, supported_degree_cap(k)))
    # three start points and seven evaluation points, interior as in ``interior``, drawn in one list
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=10 * k, max_size=10 * k))).reshape(10, k)
    points = (w / w.sum(axis=1, keepdims=True))[:, :-1]
    ts = draw(st.lists(st.floats(0.02, 4.0), min_size=2, max_size=2, unique=True))
    return params, max_degree, points[:3], points[3:], ts


@given(call_sequences())
def test_cached_evaluation_matches_per_multi_index_oracle(case):
    params, max_degree, (first, second, third), ys, (t1, t2) = case
    S = SpectralTransitionDensity(params, max_degree)
    pristine = copy.deepcopy(S)
    oracle = PerMultiIndexOracle(params, max_degree)
    held, other = first.copy(), second.copy()
    # repeat y0, alternate two y0 arrays, pass lists, overwrite the held array in place,
    # and cycle t from t1 to t2 and back
    plan = [
        (held, t1, np.asarray),
        (held, t1, list),
        (other, t2, np.asarray),
        (held, t2, list),
        "overwrite",
        (held, t1, np.asarray),
        (other, t1, list),
        (held, t2, np.asarray),
    ]
    ys = iter(ys)
    for step in plan:
        if isinstance(step, str):
            held[:] = third
            continue
        y0, t, form = step
        y = next(ys)
        got = S.evaluate(form(y0), form(y), t)
        fresh = copy.deepcopy(pristine).evaluate(y0.copy(), y, t)
        expected = _bits(*oracle.evaluate(y0.copy(), y, t))
        assert _bits(got.value, got.tail_term, got.tail_warning, got.small_t) == expected
        assert _bits(fresh.value, fresh.tail_term, fresh.tail_warning, fresh.small_t) == expected


# ``check_reduced``, ``dirichlet_density`` and ``SpectralTransitionDensity.evaluate`` as
# they were when evaluate checked y0 on every call, verbatim but for evaluate's rule for a
# non-finite result (a ValidationError naming y, or y0 when its basis row overflowed); the
# evaluator's tables are borrowed.


def eager_check_reduced(y, name: str = "y") -> np.ndarray:
    """Validate a point of the reduced simplex (all y_i >= 0, sum <= 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValidationError(name, "expected a 1-d point")
    if not (np.all(y >= -1e-12) and y.sum() <= 1.0 + 1e-12):  # positive form: NaN fails
        raise ValidationError(name, f"{y!r} lies outside the reduced simplex")
    return y


def eager_dirichlet_density(gw: GammaWeights, y) -> float:
    """pi_gamma at the reduced point y; +inf at a boundary hit by a negative exponent."""
    y = eager_check_reduced(y, "y")
    if y.size != gw.nvars:
        raise ValidationError("y", f"expected {gw.nvars} coordinates")
    coords = np.concatenate([y, [1.0 - y.sum()]])
    g = gw.float_gamma
    zero = coords <= 0.0
    if np.any(zero):
        if np.any(g[zero] < 0.0):
            return math.inf
        if np.any(g[zero] > 0.0):
            return 0.0
        # exponent exactly zero at the boundary: factor is 1
        coords = np.where(zero, 1.0, coords)
        g = np.where(zero, 0.0, g)
    return math.exp(float(g @ np.log(coords)) - gw.log_dirichlet_constant)


class EagerEvaluate:
    def __init__(self, tables: SpectralTransitionDensity):
        for name in ("gw", "max_degree", "_starts", "_factor", "_n", "_a", "_b", "_gather", "_inv_norm", "_nu"):
            setattr(self, name, getattr(tables, name))
        self._y0_row = None

    def _normalized_values(self, y: np.ndarray, name: str = "y") -> np.ndarray:
        remaining = 1.0 - np.concatenate([[0.0], np.cumsum(y[:-1])])
        if np.any(remaining <= 0.0):
            raise ValidationError(name, "point must be interior for the spectral series")
        x = 2.0 * y / remaining - 1.0
        i = self._factor
        factors = remaining[i] ** self._n * special.eval_jacobi(self._n, self._a, self._b, x[i])
        return self._inv_norm * factors[self._gather].prod(axis=0)

    def _start_row(self, y0: np.ndarray) -> np.ndarray:
        key = y0.tobytes()
        memo = self._y0_row
        if memo is None or memo[0] != key:
            memo = (key, self._normalized_values(y0, "y0"))
            self._y0_row = memo
        return memo[1]

    def evaluate(self, y0, y, t: float):
        if not 0 < t < math.inf:
            raise ValidationError("t", f"transition density requires 0 < t < inf, got {t}")
        y0 = eager_check_reduced(y0, "y0")
        if y0.size != self.gw.nvars:
            raise ValidationError("y0", f"expected {self.gw.nvars} coordinates")
        stat = eager_dirichlet_density(self.gw, y)  # checks y
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            start = self._start_row(y0)
            per_degree = np.add.reduceat(self._normalized_values(y) * start, self._starts)
            kernel_terms = per_degree * np.exp(-self._nu * t)
            total = stat * kernel_terms.sum()
            tail = abs(stat * kernel_terms[-1]) if self.max_degree >= 1 else 0.0
        if not (math.isfinite(total) and math.isfinite(tail)):
            raise ValidationError("y" if np.all(np.isfinite(start)) else "y0", "the density is not a finite float")
        warn = bool(tail > 1e-6 * max(abs(total), 1e-300))
        return TransitionDensity(
            value=total,
            tail_term=tail,
            n_terms=self.max_degree + 1,
            max_degree=self.max_degree,
            tail_warning=warn,
            small_t=bool(t < SMALL_T_THRESHOLD),
        )


BAD_POINTS = [
    "nan", "inf", "-inf", "negative", "sum above 1", "zero coordinate", "sum 1", "vertex", "short", "long", "2-d"
]


def spoil(v: np.ndarray, bad: str, j: int):
    """The reduced point v made bad in one way; j picks the coordinate."""
    v = v.copy()
    if bad in ("nan", "inf", "-inf", "negative", "zero coordinate"):
        v[j] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -0.1, "zero coordinate": 0.0}[bad]
        return v
    if bad in ("sum above 1", "sum 1"):
        return v * ((1.25 if bad == "sum above 1" else 1.0) / v.sum())
    if bad == "vertex":
        return np.eye(v.size)[j]
    if bad == "short":
        return v[:-1]
    if bad == "long":
        return np.append(v, 0.0)
    return v.reshape(1, -1)  # same bytes, another shape


def _outcome(evaluate, calls):
    """Bits of the last call, or the field of its ValidationError."""
    for y0, y, t in calls:
        try:
            out = evaluate(y0, y, t)
        except ValidationError as exc:
            result = ("error", exc.field)
        else:
            result = _bits(out.value, out.tail_term, out.tail_warning, out.small_t)
    return result


@given(
    call_sequences(),
    st.sampled_from(["y0", "y", "t"]),
    st.sampled_from(BAD_POINTS),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.integers(0, 3),
)
def test_one_bad_argument_fails_as_the_eager_checks_did(case, field, bad, bad_t, j):
    """A call with exactly one bad argument, after a good call, raises naming the
    field that the eager checks name, or returns the bits that they return."""
    params, max_degree, (y0, *_), (y, *_), (t, _) = case
    S = SpectralTransitionDensity(params, max_degree)
    args = {"y0": y0, "y": y, "t": t}
    args[field] = bad_t if field == "t" else spoil(args[field], bad, j % y0.size)
    # the good call primes the y0 memo; a 2-d y0 has the same bytes as the good one
    calls = [(y0, y, t), (args["y0"], args["y"], args["t"])]
    assert _outcome(S.evaluate, calls) == _outcome(EagerEvaluate(S).evaluate, calls)


@st.composite
def near_face(draw, k: int):
    """A reduced point whose full point has one coordinate in [1e-300, 1e-2] (before normalising): near a face or a corner."""
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w[draw(st.integers(0, k - 1))] = 10.0 ** draw(st.floats(-300.0, -2.0))
    return (w / w.sum())[:-1]


@st.composite
def extreme_calls(draw):
    k = draw(st.integers(2, 5))
    rate = math.exp(draw(st.floats(math.log(0.15), math.log(1e8))))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    points = [(draw(near_face(k)), draw(near_face(k)), 10.0 ** draw(st.floats(-3.0, 1.0))) for _ in range(3)]
    return WfParams(b=rate, alpha=1.0, p=w / w.sum()), points


@given(extreme_calls())
def test_evaluate_is_finite_or_names_a_point(case):
    """Over log-uniform b/alpha in [0.15, 1e8], k = 2..5 and points near the faces, ``evaluate``
    returns a finite value and tail, or raises a ValidationError naming y0 or y; it never warns."""
    params, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = SpectralTransitionDensity(params)
        for y0, y, t in points:
            try:
                out = S.evaluate(y0, y, t)
            except ValidationError as exc:
                assert exc.field in ("y0", "y")
            else:
                assert math.isfinite(out.value) and math.isfinite(out.tail_term)
