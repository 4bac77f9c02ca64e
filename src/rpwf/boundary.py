"""One-dimensional marginal analytics: boundaries, scale/speed, hitting times.

A color group J of the diffusion aggregates to the [0,1]-valued process

    dZ = (-a1 Z + a0 (1-Z)) dt + sqrt(max(0, Z(1-Z))) dW,
    a0 = (b/alpha) sum_{l in J} p_l,   a1 = b/alpha - a0.

The boundary z in {0,1} is Exit for a_z = 0, Regular for 0 < a_z < 1/2 and
Entrance for a_z >= 1/2; ``classify_boundary`` alone states that rule.  A
group J is recessive (its frequency reaches 0) iff a0 < 1/2, and color i
is dominant (X_i reaches 1) iff the a1 of {i} is < 1/2.  Scale function
and speed density

    S'(z) prop z^{-2 a0} (1-z)^{-2 a1},      m(z) prop z^{2 a0 - 1} (1-z)^{2 a1 - 1}

drive the classical interval problems: hitting probabilities, Green
function, expected exit costs, and the stationary Beta(2 a0, 2 a1) law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import lgamma

import numpy as np

from .errors import ValidationError
from .wright_fisher import OneDimWf, WfParams

__all__ = [
    "BoundaryType",
    "IntervalProblem",
    "classify_boundary",
    "group_to_1d",
    "is_recessive",
    "is_dominant",
    "dominant_colors",
    "scale_increment",
    "scale_function",
    "speed_density",
    "hitting_prob",
    "green_function",
    "expected_cost",
    "expected_cost_scale_form",
    "mean_exit_time",
    "return_ratio_density",
    "stationary_beta_cdf",
]


class BoundaryType(Enum):
    EXIT = "exit"
    REGULAR = "regular"
    ENTRANCE = "entrance"


def classify_boundary(a_z: float) -> BoundaryType:
    """Feller type of the boundary whose coefficient is a_z."""
    if not a_z >= 0:  # positive form, so that a NaN fails
        raise ValidationError("a_z", f"must be >= 0, got {a_z}")
    if a_z == 0:
        return BoundaryType.EXIT
    if a_z < 0.5:
        return BoundaryType.REGULAR
    return BoundaryType.ENTRANCE


def group_to_1d(params: WfParams, J) -> OneDimWf:
    """Marginal SDE coefficients of the aggregated group J (1-based colors)."""
    a0 = params.rate * _group_mass(params, J)
    return OneDimWf(a0=a0, a1=params.rate - a0)


def is_recessive(params: WfParams, J) -> bool:
    """True iff J's a0 < 1/2, its boundary at 0 not an entrance: the group frequency touches 0."""
    return classify_boundary(group_to_1d(params, J).a0) is not BoundaryType.ENTRANCE


def is_dominant(params: WfParams, i: int) -> bool:
    """True iff the a1 of {i} is < 1/2, its boundary at 1 not an entrance: X_i touches 1."""
    if not 1 <= i <= params.k:
        raise ValidationError("i", f"color must lie in 1..{params.k}")
    return classify_boundary(group_to_1d(params, [i]).a1) is not BoundaryType.ENTRANCE


def dominant_colors(params: WfParams) -> list[int]:
    return [i for i in range(1, params.k + 1) if is_dominant(params, i)]


def _group_mass(params: WfParams, J) -> float:
    """sum_{l in J} p_l of a nonempty proper group J of the colors 1..k, each counted once."""
    J = sorted(set(int(c) for c in J))
    if not J:
        raise ValidationError("j", "group must be nonempty")
    if any(c < 1 or c > params.k for c in J):
        raise ValidationError("j", f"colors must lie in 1..{params.k}")
    if len(J) == params.k:
        raise ValidationError("j", "group must be a proper subset of the colors")
    return float(sum(params.p[c - 1] for c in J))


def _doublings(z: float, top: float) -> list[float]:
    """2z, 4z, 8z, ... capped at top: the dyadic cuts from z up to top."""
    out = []
    while z < top:
        z = min(2.0 * z, top)
        out.append(z)
    return out


def _scale_panels(z1: float, z2: float) -> list[tuple[float, float]]:
    """Dyadic panels of [z1, z2] refined toward 0 and 1, by the same doublings from each end."""
    lo, hi = min(z1, z2), max(z1, z2)
    cuts = [lo, *_doublings(lo, min(hi, 0.5))]
    cuts.extend(1.0 - z for z in reversed(_doublings(1.0 - hi, min(1.0 - cuts[-1], 0.5))))
    if cuts[-1] < hi:
        cuts.append(hi)
    return [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def scale_increment(od: OneDimWf, z1: float, z2: float) -> float:
    """Integral of t^{-2 a0} (1-t)^{-2 a1} from z1 to z2 (signed).

    Endpoints 0 and 1 are admitted: the result is finite when the matching
    exponent is integrable (2 a_z < 1) and ``inf`` (reported divergence,
    entrance boundary) otherwise.  A finite integral too large for a float
    raises ``ValidationError`` naming the coefficient whose factor is
    largest on [z1, z2].
    """
    for name, z in (("z1", z1), ("z2", z2)):
        if not 0.0 <= z <= 1.0:
            raise ValidationError(name, f"must lie in [0, 1], got {z}")
    if z1 == z2:
        return 0.0
    sign = 1.0 if z2 > z1 else -1.0
    lo, hi = min(z1, z2), max(z1, z2)
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite total
        if lo == 0.0:
            if classify_boundary(od.a0) is BoundaryType.ENTRANCE:
                return sign * math.inf
            lo = min(hi, 0.25)
            total += _endpoint_tail(od.a0, od.a1, lo)
        if hi == 1.0 and lo < 1.0:
            if classify_boundary(od.a1) is BoundaryType.ENTRANCE:
                return sign * math.inf
            hi = max(lo, 0.75)
            total += _endpoint_tail(od.a1, od.a0, 1.0 - hi)
        for a, b in _scale_panels(lo, hi) if hi > lo else []:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            t = mid + half * _GL_NODES
            total += half * float(_GL_WEIGHTS @ (t ** (-2.0 * od.a0) * (1.0 - t) ** (-2.0 * od.a1)))
    if not math.isfinite(total):
        # the factors peak at the ends: t^{-2 a0} at lo, (1-t)^{-2 a1} at hi
        name = "a0" if -od.a0 * math.log(lo) >= -od.a1 * math.log1p(-hi) else "a1"
        raise ValidationError(name, f"scale integral over [{z1}, {z2}] overflows at a0={od.a0}, a1={od.a1}")
    return sign * total


def _endpoint_tail(a_near: float, a_far: float, width: float) -> float:
    """Integral of s^{-2 a_near} (1-s)^{-2 a_far} over [0, width]: the scale density between an endpoint and a cut.

    The end at 0 is (a0, a1, cut) and the end at 1, by s = 1 - t, is (a1, a0, 1 - cut).
    The rule is Gauss-Jacobi in u = s / width, whose weights integrate over [-1, 1].
    """
    from .quadrature import _jacobi_raw  # loaded on first use, as the SciPy it calls is

    u, w = _jacobi_raw(60, -2.0 * a_near, 0.0)
    s = width * u
    scale = (0.5 * width) ** (1.0 - 2.0 * a_near)
    return scale * float(w @ (1.0 - s) ** (-2.0 * a_far))


def scale_function(od: OneDimWf, z: float) -> float:
    """S(z) = integral of t^{-2 a0} (1-t)^{-2 a1} from 1/2 to z; hitting probabilities and
    Green functions do not depend on this frame, as any other is affine in it."""
    if not 0.0 < z < 1.0:
        raise ValidationError("z", f"scale function is defined on (0, 1), got {z}")
    return scale_increment(od, 0.5, z)


def speed_density(od: OneDimWf, z: float) -> float:
    """m(z) = z^{2 a0 - 1} (1-z)^{2 a1 - 1}, in the frame of unit scale slope."""
    if not 0.0 < z < 1.0:
        raise ValidationError("z", f"speed density is defined on (0, 1), got {z}")
    return z ** (2.0 * od.a0 - 1.0) * (1.0 - z) ** (2.0 * od.a1 - 1.0)


@dataclass(frozen=True)
class IntervalProblem:
    """Exit problem from (a, b_pt) for the 1-d marginal, 0 < a < b_pt < 1."""

    od: OneDimWf
    a: float
    b_pt: float

    def __post_init__(self):
        # positive form, so that a NaN (every comparison false) fails
        if not 0.0 < self.a < 1.0:
            raise ValidationError("a", f"must lie in (0, 1), got {self.a}")
        if not self.a < self.b_pt < 1.0:
            raise ValidationError("b-pt", f"need a < b < 1, got a={self.a}, b={self.b_pt}")


def _scale_ratios(ip: IntervalProblem, *points: tuple[str, float]) -> tuple[float, float]:
    """Scale ratios (S(z)-S(a))/(S(b)-S(a)) and (S(b)-S(z))/(S(b)-S(a)) of the first point z.

    Every (name, value) point must lie in [a, b]; the first that does not
    is named in the ``ValidationError``.  Each ratio is its own quotient:
    one as 1 minus the other is lost to rounding when that one is near 1.
    """
    for name, z in points:
        if not ip.a <= z <= ip.b_pt:
            raise ValidationError(name, f"must lie in [{ip.a}, {ip.b_pt}], got {z}")
    od, a, b, z = ip.od, ip.a, ip.b_pt, points[0][1]
    den = scale_increment(od, a, b)
    return scale_increment(od, a, z) / den, scale_increment(od, z, b) / den


def _green(ip: IntervalProblem, ratios: tuple[float, float], x: float, s: float) -> float:
    """Green function G(x, s) given x's ``_scale_ratios`` (u, v):

    2 u (S(b)-S(s)) m(s) for x <= s and 2 v (S(s)-S(a)) m(s) otherwise.
    The ratio is at most 1 and the small speed density offsets the scale
    increment, so nothing overflows at large a0, a1.
    """
    if x <= s:
        return 2.0 * ratios[0] * (scale_increment(ip.od, s, ip.b_pt) * speed_density(ip.od, s))
    return 2.0 * ratios[1] * (scale_increment(ip.od, ip.a, s) * speed_density(ip.od, s))


def hitting_prob(ip: IntervalProblem, z0: float) -> float:
    """P(reach b before a | Z_0 = z0) = (S(z0) - S(a)) / (S(b) - S(a))."""
    u, _ = _scale_ratios(ip, ("z0", z0))
    return min(max(u, 0.0), 1.0)


def green_function(ip: IntervalProblem, x: float, s: float) -> float:
    """Green function of Z on [a, b]: expected occupation density of s for a
    start at x, killed at the first exit."""
    return _green(ip, _scale_ratios(ip, ("x", x), ("s", s)), x, s)


def _panel_nodes(a: float, b: float):
    """Gauss-Legendre nodes and weights on eight equal panels of [a, b]."""
    edges = np.linspace(a, b, 9)
    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts.append(mid + half * _GL_NODES)
        wts.append(half * _GL_WEIGHTS)
    return np.concatenate(pts), np.concatenate(wts)


def _integral(lo: float, hi: float, f) -> float:
    """Integral of f over [lo, hi] on the ``_panel_nodes`` grid, f taken node by node; 0.0 when hi <= lo."""
    if hi <= lo:
        return 0.0
    s, w = _panel_nodes(lo, hi)
    return float(w @ np.array([f(si) for si in s]))


def expected_cost(ip: IntervalProblem, z0: float, g) -> float:
    """E[ integral of g(Z_t) dt up to the first exit from (a, b) ], via the
    Green function; g is sampled on a Gauss grid split at z0."""
    ratios = _scale_ratios(ip, ("z0", z0))  # z0's, shared by every node
    integrand = lambda s: _green(ip, ratios, z0, s) * g(s)
    return 0.0 + _integral(ip.a, z0, integrand) + _integral(z0, ip.b_pt, integrand)  # a running sum from 0.0


def expected_cost_scale_form(ip: IntervalProblem, z0: float, g) -> float:
    """Same expected cost through the scale/speed two-integral representation:

    w(z0) = 2 [ u(z0) int_z0^b (S(b)-S(t)) m(t) g(t) dt
              + v(z0) int_a^z0 (S(t)-S(a)) m(t) g(t) dt ],

    with u and v the scale ratios (S(z0)-S(a))/(S(b)-S(a)) and (S(b)-S(z0))/(S(b)-S(a)).
    """
    u, v = _scale_ratios(ip, ("z0", z0))
    od, a, b = ip.od, ip.a, ip.b_pt
    upper = _integral(z0, b, lambda t: scale_increment(od, t, b) * speed_density(od, t) * g(t))
    lower = _integral(a, z0, lambda t: scale_increment(od, a, t) * speed_density(od, t) * g(t))
    return 2.0 * (u * upper + v * lower)


def mean_exit_time(ip: IntervalProblem, z0: float) -> float:
    """Expected time to first reach a or b (cost rate 1)."""
    return expected_cost(ip, z0, lambda s: 1.0)


def return_ratio_density(od: OneDimWf, z0: float) -> float:
    """Excursion return-time ratio density at z0.

    Equals the stationary Beta(2 a0, 2 a1) density: Gamma-ratio prefactor
    times z0^{2 a0 - 1} (1 - z0)^{2 a1 - 1}.
    """
    if not 0.0 < z0 < 1.0:
        raise ValidationError("z0", f"must lie in (0, 1), got {z0}")
    for name in ("a0", "a1"):
        if not getattr(od, name) > 0:
            raise ValidationError(name, f"return-ratio density requires a0, a1 > 0, got {name}={getattr(od, name)}")
    logc = lgamma(2.0 * (od.a0 + od.a1)) - lgamma(2.0 * od.a0) - lgamma(2.0 * od.a1)
    return math.exp(logc + (2.0 * od.a0 - 1.0) * math.log(z0) + (2.0 * od.a1 - 1.0) * math.log(1.0 - z0))


def stationary_beta_cdf(od: OneDimWf):
    """CDF of the stationary Beta(2 a0, 2 a1) law, for goodness-of-fit tests."""
    from scipy.special import betainc  # loaded on first use, not on import

    return lambda z: betainc(2.0 * od.a0, 2.0 * od.a1, np.clip(z, 0.0, 1.0))
