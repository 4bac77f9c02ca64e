"""Orthogonal polynomials on the reduced simplex T^{k-1}.

Everything here is relative to the weight

    w_gamma(y) = prod_i y_i^{gamma_i} * (1 - sum y)^{gamma_k},   gamma_i > -1,

normalized to the Dirichlet density pi_gamma.  The degree-n orthogonal
space is an eigenspace of the second-order operator

    L_gamma f = sum_i [(gamma_i + 1) - (|gamma| + k) y_i] df/dy_i
              + sum_i y_i (1 - y_i) d2f/dy_i2
              - 2 sum_{i<j} y_i y_j d2f/dy_idy_j

with eigenvalue -lambda_n, lambda_n = n (n + |gamma| + k - 1).  Three
bases are provided: the orthonormal product-Jacobi basis, the monic basis
(unique element y^n + lower degree orthogonal to all lower degrees) and
the Rodrigues-formula basis; the latter two are biorthogonal families.

Coefficients stay exact (``fractions.Fraction``) whenever gamma is
rational; float gammas degrade gracefully to float coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lgamma
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .wright_fisher import WfParams

__all__ = [
    "GammaWeights",
    "MultiIndexPolynomial",
    "multi_indices",
    "basis_jacobi",
    "basis_monic",
    "basis_rodrigues",
    "apply_generator",
    "eigenvalue_nu",
    "eigenvalue_lambda",
    "inner_product",
    "dirichlet_moment",
    "supported_degree_cap",
    "default_max_degree",
    "jacobi_product_norm_sq_log",
]

# The supported k, each with (default truncation degree of the spectral
# series, degree cap): the univariate layer is cheap, higher dimensions blow
# up combinatorially.
_DEGREES = {2: (30, 40), 3: (10, 10), 4: (6, 6), 5: (6, 6)}


def _as_number(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return float(x)


@dataclass(frozen=True)
class GammaWeights:
    """Dirichlet exponent vector gamma (length k, each entry > -1)."""

    gamma: tuple

    def __post_init__(self):
        g = tuple(_as_number(x) for x in self.gamma)
        if len(g) < 2:
            raise ValidationError("gamma", "need at least two entries")
        for x in g:
            if not x > -1:
                raise ValidationError("gamma", f"every entry must exceed -1, got {x}")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def from_wf(cls, params: WfParams) -> "GammaWeights":
        """gamma_i = 2 (b/alpha) p_i - 1."""
        return cls(tuple(2.0 * params.rate * pi - 1.0 for pi in params.p))

    @property
    def k(self) -> int:
        return len(self.gamma)

    @property
    def nvars(self) -> int:
        return self.k - 1

    @property
    def total(self):
        return sum(self.gamma)

    @cached_property
    def float_gamma(self) -> np.ndarray:
        """gamma as a read-only float array, built once per instance."""
        g = np.array([float(v) for v in self.gamma])
        g.setflags(write=False)
        return g

    @cached_property
    def log_dirichlet_constant(self) -> float:
        """log of 1/w_gamma, i.e. of the Dirichlet integral of the raw weight."""
        g = [float(x) for x in self.gamma]
        return sum(lgamma(x + 1.0) for x in g) - lgamma(sum(g) + len(g))


def multi_indices(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All multi-indices of total degree exactly ``degree`` in ``nvars`` variables."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in multi_indices(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def _degrees(k: int) -> tuple[int, int]:
    if k not in _DEGREES:
        raise ValidationError("k", f"polynomial and spectral layers support 2 <= k <= 5, got k={k}")
    return _DEGREES[k]


def supported_degree_cap(k: int) -> int:
    return _degrees(k)[1]


def default_max_degree(k: int) -> int:
    """Truncation degree of the spectral series when none is given."""
    return _degrees(k)[0]


def _check_supported(n: Sequence[int], gw: GammaWeights) -> tuple[int, ...]:
    n = tuple(int(v) for v in n)
    if len(n) != gw.nvars:
        raise ValidationError("n", f"multi-index length {len(n)} != k-1 = {gw.nvars}")
    if any(v < 0 for v in n):
        raise ValidationError("n", "multi-index entries must be nonnegative")
    cap = supported_degree_cap(gw.k)
    if sum(n) > cap:
        raise ValidationError("n", f"degree {sum(n)} exceeds the supported cap {cap} for k={gw.k}")
    return n


class MultiIndexPolynomial:
    """Sparse multivariate polynomial: monomial exponent tuple -> coefficient."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, object] | None = None):
        self.nvars = int(nvars)
        self.coeffs: dict[tuple[int, ...], object] = {}
        if coeffs:
            self._accumulate((tuple(int(v) for v in e), c) for e, c in coeffs.items())

    def _accumulate(self, terms) -> "MultiIndexPolynomial":
        """Add each (exponent tuple, coefficient) term in place, dropping a monomial whose sum is 0."""
        for e, c in terms:
            s = self.coeffs.get(e, 0) + c
            if s == 0:
                self.coeffs.pop(e, None)
            else:
                self.coeffs[e] = s
        return self

    @classmethod
    def one(cls, nvars: int) -> "MultiIndexPolynomial":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int]) -> "MultiIndexPolynomial":
        return cls(nvars, {tuple(exponents): Fraction(1)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiIndexPolynomial":
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(nvars, e)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        """Sum with a polynomial or a scalar (a constant polynomial)."""
        if not isinstance(other, MultiIndexPolynomial):
            other = MultiIndexPolynomial(self.nvars, {(0,) * self.nvars: other})
        return MultiIndexPolynomial(self.nvars, self.coeffs)._accumulate(other.coeffs.items())

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        """Difference with a polynomial or a scalar: self + (-1) other."""
        return self + other * -1

    def __rsub__(self, other):
        """A scalar minus the polynomial: (-1) self + other."""
        return self * -1 + other

    def __mul__(self, other):
        """Product with a polynomial, or every coefficient times a scalar (zeros dropped)."""
        if isinstance(other, MultiIndexPolynomial):
            terms = (
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.coeffs.items()
                for e2, c2 in other.coeffs.items()
            )
            return MultiIndexPolynomial(self.nvars)._accumulate(terms)
        return MultiIndexPolynomial(self.nvars, {e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self * (self * (... * 1)), n factors; n >= 0."""
        if n < 0:
            raise ValueError("negative power")
        out = MultiIndexPolynomial.one(self.nvars)
        for _ in range(n):
            out = self * out
        return out

    def diff(self, var: int) -> "MultiIndexPolynomial":
        out = {}
        for e, c in self.coeffs.items():
            if e[var] > 0:
                e2 = list(e)
                e2[var] -= 1
                out[tuple(e2)] = c * e[var]
        return MultiIndexPolynomial(self.nvars, out)

    def __call__(self, y) -> float:
        """Value at one point: ``eval_many`` on a batch of one."""
        return float(self.eval_many(np.reshape(y, (1, -1)))[0])

    def eval_many(self, Y: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, nvars) array of points."""
        Y = np.asarray(Y, dtype=float)
        if not self.coeffs:
            return np.zeros(Y.shape[0])
        max_e = [max(e[i] for e in self.coeffs) for i in range(self.nvars)]
        pw = [np.vander(Y[:, i], max_e[i] + 1, increasing=True) for i in range(self.nvars)]
        total = np.zeros(Y.shape[0])
        for e, c in self.coeffs.items():
            m = np.full(Y.shape[0], float(c))
            for i, ei in enumerate(e):
                if ei:
                    m = m * pw[i][:, ei]
            total += m
        return total

    def __eq__(self, other):
        if not isinstance(other, MultiIndexPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and (self - other).is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e), reverse=True):
            c = self.coeffs[e]
            mono = "*".join(f"y{i+1}^{v}" for i, v in enumerate(e) if v) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def _poch(x, m: int):
    """Pochhammer (x)_m = x (x+1) ... (x+m-1); exact for Fraction x."""
    out = Fraction(1) if isinstance(x, (Fraction, int)) else 1.0
    for j in range(m):
        out = out * (x + j)
    return out


def _binom(x, j: int):
    """Generalized binomial coefficient C(x, j) = x (x-1) ... (x-j+1) / j! = (x-j+1)_j / j!."""
    return _poch(x - j + 1, j) / math.factorial(j)


@lru_cache(maxsize=None)
def _moment_cached(gamma: tuple, exps: tuple):
    num = 1
    for g, e in zip(gamma, exps):
        num = num * _poch(g + 1, e)
    den = _poch(sum(gamma) + len(gamma), sum(exps))
    return num / den


def dirichlet_moment(gw: GammaWeights, exps: Sequence[int]):
    """E[prod y_i^{e_i}] under the Dirichlet(gamma + 1) law on T^{k-1}.

    Exponents refer to the k-1 reduced coordinates; exact for rational gamma.
    """
    exps = tuple(int(e) for e in exps)
    if len(exps) != gw.nvars:
        raise ValidationError("exps", f"expected {gw.nvars} exponents")
    return _moment_cached(gw.gamma, exps)


def inner_product(f: MultiIndexPolynomial, g: MultiIndexPolynomial, gw: GammaWeights):
    """<f, g> under pi_gamma, via exact Dirichlet moments."""
    h = f * g
    total = 0
    for e, c in h.coeffs.items():
        total = total + c * dirichlet_moment(gw, e)
    return total


def _trailing_weight_sum(gw: GammaWeights, i: int):
    """C_i = sum_{l>i} (gamma_l + 1) over the remaining k-1-i coordinates plus the implicit one."""
    return sum(gw.gamma[i + 1 :]) + (gw.k - 1 - i)


def _jacobi_factor_params(n: tuple, gw: GammaWeights, i: int):
    """Jacobi parameters (a_i, b_i) of the i-th stick-breaking factor."""
    trailing_degree = sum(n[i + 1 :])
    a_i = 2 * trailing_degree + _trailing_weight_sum(gw, i) - 1
    return a_i, gw.gamma[i]


def _jacobi_product_raw(n: tuple, gw: GammaWeights) -> MultiIndexPolynomial:
    """Unnormalized product-Jacobi element of the degree-|n| space.

    Stick-breaking construction: with remaining mass R_i = 1 - y_1 - ... -
    y_{i-1}, the i-th factor is the homogenization R_i^{n_i} p_{n_i}^{(a_i,
    gamma_i)}(2 y_i / R_i - 1), where a_i absorbs the trailing weight mass
    and twice the trailing degree.  Each factor is Szego's explicit sum (4.3.2)
    R^m p_m^{(a,b)}(2y/R - 1) = sum_j C(m+a, m-j) C(m+b, j) (y - R)^j y^(m-j).
    """
    d = gw.nvars
    poly = MultiIndexPolynomial.one(d)
    R = MultiIndexPolynomial.one(d)
    for i in range(d):
        a_i, b_i = _jacobi_factor_params(n, gw, i)
        m = n[i]
        y = MultiIndexPolynomial.variable(d, i)
        y_minus_R = y - R
        factor = _binom(m + a_i, m) * y ** m
        y_minus_R_pow = MultiIndexPolynomial.one(d)  # (y - R)^j
        for j in range(1, m + 1):
            y_minus_R_pow = y_minus_R_pow * y_minus_R
            factor = factor + _binom(m + a_i, m - j) * _binom(m + b_i, j) * y_minus_R_pow * y ** (m - j)
        poly = poly * factor
        R = R - y
    return poly


def jacobi_product_norm_sq_log(n: Sequence[int], gw: GammaWeights) -> float:
    """log of the squared pi_gamma-norm of the raw product-Jacobi element, by factorization."""
    n = tuple(int(v) for v in n)
    total = 0.0
    for i in range(gw.nvars):
        a_i, b_i = (float(v) for v in _jacobi_factor_params(n, gw, i))
        m = n[i]
        c_i = float(_trailing_weight_sum(gw, i))
        # (2m + a + b + 1) Gamma(m + a + b + 1), which is Gamma(a + b + 2) at m = 0
        # (a + b + 1 may be <= 0 there, in the recessive regime)
        if m == 0:
            lead = lgamma(a_i + b_i + 2)
        else:
            lead = math.log(2 * m + a_i + b_i + 1) + lgamma(m + a_i + b_i + 1)
        num = lgamma(m + a_i + 1) + lgamma(m + b_i + 1) - lead - lgamma(m + 1)
        den = lgamma(b_i + 1) + lgamma(c_i) - lgamma(b_i + 1 + c_i)
        total += num - den
    return total


def basis_jacobi(n: Sequence[int], gw: GammaWeights, normalized: bool = True) -> MultiIndexPolynomial:
    """Product-Jacobi basis element; unit norm under pi_gamma by default.

    With ``normalized=False`` the raw (exact-coefficient) element is
    returned, which is what the symbolic eigen-identity tests consume.
    """
    n = _check_supported(n, gw)
    raw = _jacobi_product_raw(n, gw)
    if not normalized:
        return raw
    scale = math.exp(-0.5 * jacobi_product_norm_sq_log(n, gw))
    return raw * scale


def basis_monic(n: Sequence[int], gw: GammaWeights) -> MultiIndexPolynomial:
    """Monic element y^n + lower degrees, orthogonal to all lower degrees.

    Explicit sum over m <= n (componentwise) with Pochhammer-ratio
    coefficients; the leading (m = n) coefficient is exactly 1.
    """
    n = _check_supported(n, gw)
    d = gw.nvars
    total_deg = sum(n)
    shifted = total_deg + gw.total + gw.k - 1
    denom = _poch(shifted, total_deg)
    coeffs: dict[tuple[int, ...], object] = {}
    for m in itertools.product(*(range(v + 1) for v in n)):  # m <= n componentwise
        c = _poch(shifted, sum(m)) / denom
        sign = -1 if (total_deg - sum(m)) % 2 else 1
        for i in range(d):
            c = c * comb(n[i], m[i]) * _poch(gw.gamma[i] + 1, n[i]) / _poch(gw.gamma[i] + 1, m[i])
        coeffs[m] = sign * c
    return MultiIndexPolynomial(d, coeffs)


def basis_rodrigues(n: Sequence[int], gw: GammaWeights) -> MultiIndexPolynomial:
    """Rodrigues-formula element: weight-relative derivative of the shifted weight.

    U_n = w_gamma^{-1} * d^{|n|}/dy^n [ (1-sum y)^{gamma_k + |n|} prod
    y_i^{gamma_i + n_i} ], expanded by the Leibniz rule with falling
    factorials x^(j) = x (x-1) ... (x-j+1) = (x-j+1)_j: U_n = sum_{m <= n} (-1)^{|n|-|m|}
    (gamma_k + |n|)^(|n|-|m|) prod_i C(n_i, m_i) (gamma_i + n_i)^(m_i) y^{n-m} (1 - sum y)^{|m|}.
    """
    n = _check_supported(n, gw)
    d = gw.nvars
    total = sum(n)
    one_minus_sum = MultiIndexPolynomial.one(d)
    for i in range(d):
        one_minus_sum = one_minus_sum - MultiIndexPolynomial.variable(d, i)
    powers = [MultiIndexPolynomial.one(d)]  # (1 - sum y)^j for j = 0..|n|
    for _ in range(total):
        powers.append(powers[-1] * one_minus_sum)
    poly = MultiIndexPolynomial(d)
    for m in itertools.product(*(range(v + 1) for v in n)):  # m <= n componentwise
        rest = total - sum(m)
        c = (-1) ** rest * _poch(gw.gamma[d] + sum(m) + 1, rest)
        for i in range(d):
            c = c * comb(n[i], m[i]) * _poch(gw.gamma[i] + n[i] - m[i] + 1, m[i])
        y_shift = MultiIndexPolynomial.monomial(d, [v - u for v, u in zip(n, m)])
        poly = poly + c * (y_shift * powers[sum(m)])
    return poly


def apply_generator(f: MultiIndexPolynomial, gw: GammaWeights) -> MultiIndexPolynomial:
    """Exact application of L_gamma; the degree never increases."""
    d = gw.nvars
    if f.nvars != d:
        raise ValidationError("f", f"polynomial has {f.nvars} variables, expected {d}")
    s = gw.total + gw.k
    out = MultiIndexPolynomial(d)
    for i in range(d):
        fi = f.diff(i)
        if not fi.is_zero():
            lin = (gw.gamma[i] + 1) * MultiIndexPolynomial.one(d) - s * MultiIndexPolynomial.variable(d, i)
            out = out + lin * fi
        fii = fi.diff(i)
        if not fii.is_zero():
            yi = MultiIndexPolynomial.variable(d, i)
            out = out + (yi - yi * yi) * fii
        for j in range(i + 1, d):
            fij = fi.diff(j)
            if not fij.is_zero():
                yij = MultiIndexPolynomial.variable(d, i) * MultiIndexPolynomial.variable(d, j)
                out = out - 2 * yij * fij
    return out


def eigenvalue_lambda(n: int, gw: GammaWeights):
    """Eigenvalue of -L_gamma on the degree-n space: n (n + |gamma| + k - 1)."""
    return n * (n + gw.total + gw.k - 1)


def eigenvalue_nu(n: int, params: WfParams) -> float:
    """Decay rate of degree-n modes of the diffusion: n (n + 2 b/alpha - 1) / 2."""
    if n < 0:
        raise ValidationError("n", "degree must be >= 0")
    return 0.5 * n * (n + 2.0 * params.rate - 1.0)
