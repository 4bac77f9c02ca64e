"""Stationary density and spectral transition density of the diffusion.

The stationary law of the Wright-Fisher diffusion with mutation is the
Dirichlet density pi_gamma with gamma_i = 2 (b/alpha) p_i - 1.  The
transition density expands as

    p(y0, y; t) = pi_gamma(y) * sum_n e^{-nu_n t} sum_{|n| = n}
                  f_n(y) f_n(y0) / <f_n, f_n>_gamma,

with nu_n = n (n + 2 b/alpha - 1)/2 and f_n ranging over any basis of the
degree-n eigenspace; the kernel is basis-independent.  Evaluation uses the
product-Jacobi basis in stick-breaking form: each basis value is a product
of SciPy Jacobi values (``scipy.special.eval_jacobi`` at integer degree,
a three-term recurrence; SciPy is imported by the first build, not by
this module) at the factor parameters and norms owned by
``rpwf.polynomials``.  This stays numerically stable far beyond the degrees
where monomial expansion collapses, and covers the recessive regime
b/alpha <= 1/2, where gamma_i < 0.

An evaluator computes only what changes from call to call.  Many factors
repeat across multi-indices (factor i depends on n_i and the trailing
degree only: at k = 5, degree 6, 91 of the 840 factors are distinct), so
the build keeps a table of the distinct (i, n_i, a_i, b_i) rows and an
inverse index; a point's basis row is one Jacobi call over the distinct
rows, gathered back and multiplied out per multi-index as before.  Two
things are memoised on the evaluator: the checked basis row of the start
point y0, keyed on the (shape, bytes) of ``np.asarray(y0, float)``, so
calls with y0 held fixed (a grid sweep) neither re-check nor re-evaluate
it; and exp(-nu_n t) for the last t.  The k - 1 stick
remainders of a point are Python floats, not array temporaries.  The
Dirichlet exponents and log-normaliser are cached on ``GammaWeights``.
Every value is computed by the same arithmetic as a plain
per-multi-index evaluation, to the last bit.

The series converges spectrally for t bounded away from 0; values at
t < 0.05 are flagged unreliable rather than silently returned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .polynomials import (
    GammaWeights,
    _jacobi_factor_params,
    default_max_degree,
    eigenvalue_nu,
    jacobi_product_norm_sq_log,
    multi_indices,
    supported_degree_cap,
)
from .simplex import check_reduced
from .wright_fisher import WfParams

__all__ = [
    "dirichlet_density",
    "TransitionDensity",
    "SpectralTransitionDensity",
    "transition_density",
    "forward_equation_residual",
    "SMALL_T_THRESHOLD",
    "default_max_degree",
]

SMALL_T_THRESHOLD = 0.05
# The log-norms and the Dirichlet constant are lgamma differences of size
# r ln r (r = b/alpha), so a value carries a relative error of about
# eps r ln r: 3e-7 at r = 1e8 and 5e-5 at r = 1e10 against a 60-digit
# evaluation of the same series.  Past 1e8 it exceeds the 1e-6 that the
# tail warning allows the truncation.
_MAX_RATE = 1e8


def dirichlet_density(gw: GammaWeights, y) -> float:
    """pi_gamma at the reduced point y; +inf at a boundary hit by a negative exponent,
    and where the density exceeds the float range."""
    y = check_reduced(y, "y")
    n = gw.nvars
    if y.size != n:
        raise ValidationError("y", f"expected {n} coordinates")
    coords = np.empty(n + 1)
    coords[:n] = y
    coords[n] = 1.0 - y.sum()
    g = gw.float_gamma
    if coords.min() <= 0.0:
        zero = coords <= 0.0
        if np.any(g[zero] < 0.0):
            return math.inf
        if np.any(g[zero] > 0.0):
            return 0.0
        # exponent exactly zero at the boundary: factor is 1
        coords = np.where(zero, 1.0, coords)
        g = np.where(zero, 0.0, g)
    try:
        return math.exp(float(g @ np.log(coords)) - gw.log_dirichlet_constant)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TransitionDensity:
    """Truncated series value plus truncation diagnostics."""

    value: float
    tail_term: float
    n_terms: int
    max_degree: int
    tail_warning: bool
    small_t: bool

    def as_dict(self) -> dict:
        return asdict(self)


class SpectralTransitionDensity:
    """Transition density evaluator for fixed diffusion parameters.

    Every multi-index up to ``max_degree`` is listed once, ordered by total
    degree, with its inverse norm; its per-factor degrees and Jacobi
    parameters index a table of distinct factors, so a point's basis
    values are one vectorised Jacobi call, a gather and a product.  y0's
    checked basis row is kept per (shape, bytes) and exp(-nu_n t) per t,
    one entry each.
    """

    def __init__(self, params: WfParams, max_degree: int | None = None):
        if not params.rate <= _MAX_RATE:
            reason = f"b/alpha = {params.rate:g} exceeds {_MAX_RATE:g}; past it values lose 1e-6 relative precision"
            raise ValidationError("alpha", reason)
        self.params = params
        self.gw = GammaWeights.from_wf(params)
        k = params.k
        cap = supported_degree_cap(k)
        self.max_degree = default_max_degree(k) if max_degree is None else int(max_degree)
        if not 0 <= self.max_degree <= cap:
            raise ValidationError("max-degree", f"must lie in [0, {cap}] for k={k}")
        by_degree = [multi_indices(k - 1, n) for n in range(self.max_degree + 1)]
        indices = [n for idx in by_degree for n in idx]
        self._starts = np.cumsum([0] + [len(idx) for idx in by_degree[:-1]])
        # distinct factors (i, n_i, a_i, b_i), numbered in order of first use
        table: dict[tuple, int] = {}
        self._gather = np.array(
            [
                [table.setdefault((i, n[i], *_jacobi_factor_params(n, self.gw, i)), len(table)) for n in indices]
                for i in range(k - 1)
            ]
        )
        factor, degree, a, b = zip(*table)
        self._factor = np.array(factor)
        self._n = np.array(degree, dtype=np.int64)  # integer degree: eval_jacobi's recurrence
        self._a, self._b = np.array(a, dtype=float), np.array(b, dtype=float)
        self._inv_norm = np.array([math.exp(-0.5 * jacobi_product_norm_sq_log(n, self.gw)) for n in indices])
        self._nu = np.array([eigenvalue_nu(n, params) for n in range(self.max_degree + 1)])
        from scipy.special import eval_jacobi  # loaded on first build, not on import

        self._eval_jacobi = eval_jacobi
        self._y0_row: tuple[tuple, np.ndarray] | None = None
        self._decay_memo: tuple[float, np.ndarray] | None = None

    def _normalized_values(self, y: np.ndarray, name: str = "y") -> np.ndarray:
        """Unit-norm basis values at y, in multi-index order: factor i
        is R_i^{n_i} p_{n_i}^{(a_i, b_i)}(2 y_i / R_i - 1), R_i = 1 - y_1 - ... - y_{i-1}.

        The k - 1 remainders and arguments are Python floats, in the order
        of a cumulative sum and an elementwise divide."""
        remaining, x, head = [], [], 0.0
        for v in y.tolist():
            r = 1.0 - head
            if not r > 0.0:
                raise ValidationError(name, "point must be interior for the spectral series")
            remaining.append(r)
            x.append(2.0 * v / r - 1.0)
            head += v
        i = self._factor
        factors = np.array(remaining)[i] ** self._n * self._eval_jacobi(self._n, self._a, self._b, np.array(x)[i])
        return self._inv_norm * factors[self._gather].prod(axis=0)

    def _start_row(self, y0) -> np.ndarray:
        """Basis row of y0, checked and recomputed only when its shape or bytes change."""
        y0 = np.asarray(y0, dtype=float)
        key = (y0.shape, y0.tobytes())
        memo = self._y0_row
        if memo is None or memo[0] != key:
            y0 = check_reduced(y0, "y0")
            if y0.size != self.gw.nvars:
                raise ValidationError("y0", f"expected {self.gw.nvars} coordinates")
            memo = (key, self._normalized_values(y0, "y0"))
            self._y0_row = memo
        return memo[1]

    def _decay(self, t: float) -> np.ndarray:
        """exp(-nu_n t) per degree, recomputed only when t changes."""
        memo = self._decay_memo
        if memo is None or memo[0] != t:
            with np.errstate(over="ignore"):  # -nu_n t below -DBL_MAX: the factor is 0
                memo = (t, np.exp(-self._nu * t))
            self._decay_memo = memo
        return memo[1]

    def evaluate(self, y0, y, t: float) -> TransitionDensity:
        if not 0 < t < math.inf:
            raise ValidationError("t", f"transition density requires 0 < t < inf, got {t}")
        start = self._start_row(y0)
        stat = dirichlet_density(self.gw, y)  # checks y
        y = np.asarray(y, dtype=float)
        per_degree = np.add.reduceat(self._normalized_values(y) * start, self._starts)
        kernel_terms = per_degree * self._decay(t)
        total = stat * kernel_terms.sum()
        tail = abs(stat * kernel_terms[-1]) if self.max_degree >= 1 else 0.0
        warn = bool(tail > 1e-6 * max(abs(total), 1e-300))
        return TransitionDensity(
            value=total,
            tail_term=tail,
            n_terms=self.max_degree + 1,
            max_degree=self.max_degree,
            tail_warning=warn,
            small_t=bool(t < SMALL_T_THRESHOLD),
        )

    def __call__(self, y0, y, t: float) -> float:
        return self.evaluate(y0, y, t).value


def transition_density(y0, y, t: float, params: WfParams, max_degree: int | None = None) -> TransitionDensity:
    """One-shot spectral transition density evaluation."""
    return SpectralTransitionDensity(params, max_degree).evaluate(y0, y, t)


def _d1_5pt(f, x: float, h: float) -> float:
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _d2_5pt(f, x: float, h: float) -> float:
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def forward_equation_residual(
    density,
    y_grid: np.ndarray,
    t: float,
    params: WfParams,
    h: float = 1e-2,
) -> np.ndarray:
    """Residual of the Kolmogorov forward equation at interior grid points.

    ``density(y, t)`` is any evaluable density on reduced coordinates
    (shape (k-1,)), for any k; both the time derivative and the spatial
    operator are applied by five-point finite differences, so the check is
    independent of how the density was produced.  Each coordinate adds a
    flux and a diffusion term, each pair of coordinates a mixed term:

        d/dt p = (b/alpha) sum_i d_i[(y_i - p_i) p] + 1/2 sum_i d_ii[y_i (1 - y_i) p]
                 - sum_{i<j} d_ij[y_i y_j p].

    The spatial step is min(h, 0.4 min_i y_i, 0.4 / min(k-1, 2) y_k), so
    every stencil point stays inside the simplex.
    """
    k = params.k
    rate = params.rate
    p = params.p
    y_grid = np.atleast_2d(np.asarray(y_grid, dtype=float))
    if y_grid.shape[1] != k - 1:
        raise ValidationError("y_grid", f"expected points with {k - 1} coordinates")
    ht = min(0.2 * t, 1e-3 * max(t, 1.0)) if t > 0 else 1e-3
    out = np.empty(y_grid.shape[0])
    for row, y in enumerate(y_grid):
        y_last = 1.0
        for v in y:
            y_last -= v  # in coordinate order, as 1 - y_1 - y_2 - ...
        hy = min(h, 0.4 * y.min(), 0.4 / min(k - 1, 2) * y_last)

        def at(*moves):
            """density at y with the coordinates of ``moves`` (index, value) replaced."""
            q = y.copy()
            for i, s in moves:
                q[i] = s
            return density(q, t)

        dt_term = _d1_5pt(lambda tt: density(y, tt), t, ht)
        flux = diff = mixed = 0.0
        for i in range(k - 1):
            flux += _d1_5pt(lambda s: (s - p[i]) * at((i, s)), y[i], hy)
            diff += _d2_5pt(lambda s: s * (1.0 - s) * at((i, s)), y[i], hy)
            for j in range(i + 1, k - 1):
                mixed += _d1_5pt(lambda u: _d1_5pt(lambda v: u * v * at((i, u), (j, v)), y[j], hy), y[i], hy)
        out[row] = dt_term - (rate * flux + 0.5 * (diff - 2.0 * mixed))
    return out
