"""One-dimensional marginal analytics: boundaries, scale/speed, hitting times.

A color group J of the diffusion aggregates to the [0,1]-valued process

    dZ = (-a1 Z + a0 (1-Z)) dt + sqrt(max(0, Z(1-Z))) dW,
    a0 = (b/alpha) sum_{l in J} p_l,   a1 = b/alpha - a0.

The boundary z in {0,1} is Exit for a_z = 0, Regular for 0 < a_z < 1/2 and
Entrance for a_z >= 1/2.  Scale function and speed density

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
from scipy import special

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
    if a_z < 0:
        raise ValidationError("a_z", f"must be >= 0, got {a_z}")
    if a_z == 0:
        return BoundaryType.EXIT
    if a_z < 0.5:
        return BoundaryType.REGULAR
    return BoundaryType.ENTRANCE


def group_to_1d(params: WfParams, J) -> OneDimWf:
    """Marginal SDE coefficients of the aggregated group J (1-based colors)."""
    J = _check_group(params.k, J)
    a0 = params.rate * float(sum(params.p[c - 1] for c in J))
    return OneDimWf(a0=a0, a1=params.rate - a0)


def is_recessive(params: WfParams, J) -> bool:
    """True iff sum_{l in J} p_l < alpha / (2 b): the group frequency touches 0."""
    J = _check_group(params.k, J)
    return float(sum(params.p[c - 1] for c in J)) < params.alpha / (2.0 * params.b)


def is_dominant(params: WfParams, i: int) -> bool:
    """True iff the complement of {i} is recessive: X_i touches 1."""
    if not 1 <= i <= params.k:
        raise ValidationError("i", f"color must lie in 1..{params.k}")
    return 1.0 - float(params.p[i - 1]) < params.alpha / (2.0 * params.b)


def dominant_colors(params: WfParams) -> list[int]:
    return [i for i in range(1, params.k + 1) if is_dominant(params, i)]


def _check_group(k: int, J) -> tuple[int, ...]:
    J = tuple(sorted(set(int(c) for c in J)))
    if not J:
        raise ValidationError("j", "group must be nonempty")
    if any(c < 1 or c > k for c in J):
        raise ValidationError("j", f"colors must lie in 1..{k}")
    if len(J) == k:
        raise ValidationError("j", "group must be a proper subset of the colors")
    return J


def _scale_panels(z1: float, z2: float) -> list[tuple[float, float]]:
    """Dyadic panels of [z1, z2] refined toward 0 and 1."""
    lo, hi = min(z1, z2), max(z1, z2)
    cuts = [lo]
    z = lo
    while z < min(hi, 0.5):
        z = min(2.0 * z, min(hi, 0.5))
        cuts.append(z)
    right = []
    z = 1.0 - hi
    top = min(1.0 - cuts[-1], 0.5)
    while z < top:
        z = min(2.0 * z, top)
        right.append(1.0 - z)
    cuts.extend(reversed(right))
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
            if 2.0 * od.a0 >= 1.0:
                return sign * math.inf
            cut = min(hi, 0.25)
            total += _endpoint_tail(od, 0.0, cut)
            lo = cut
        if hi == 1.0 and lo < 1.0:
            if 2.0 * od.a1 >= 1.0:
                return sign * math.inf
            cut = max(lo, 0.75)
            total += _endpoint_tail(od, 1.0, cut)
            hi = cut
        for a, b in _scale_panels(lo, hi) if hi > lo else []:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            t = mid + half * _GL_NODES
            total += half * float(_GL_WEIGHTS @ (t ** (-2.0 * od.a0) * (1.0 - t) ** (-2.0 * od.a1)))
    if not math.isfinite(total):
        # the factors peak at the ends: t^{-2 a0} at lo, (1-t)^{-2 a1} at hi
        name = "a0" if -od.a0 * math.log(lo) >= -od.a1 * math.log1p(-hi) else "a1"
        raise ValidationError(name, f"scale integral over [{z1}, {z2}] overflows at a0={od.a0}, a1={od.a1}")
    return sign * total


def _endpoint_tail(od: OneDimWf, endpoint: float, cut: float) -> float:
    """Integral of the scale density between an endpoint and an interior cut."""
    if endpoint == 0.0:
        x, w = special.roots_jacobi(60, 0.0, -2.0 * od.a0)
        t = 0.5 * cut * (x + 1.0)
        scale = (0.5 * cut) ** (1.0 - 2.0 * od.a0)
        return scale * float(w @ (1.0 - t) ** (-2.0 * od.a1))
    x, w = special.roots_jacobi(60, 0.0, -2.0 * od.a1)
    s = 0.5 * (1.0 - cut) * (x + 1.0)  # s = 1 - t
    scale = (0.5 * (1.0 - cut)) ** (1.0 - 2.0 * od.a1)
    return scale * float(w @ (1.0 - s) ** (-2.0 * od.a0))


def scale_function(od: OneDimWf, z: float, z_ref: float = 0.5, S_ref: float = 0.0, slope_ref: float = 1.0) -> float:
    """S(z) up to the affine frame (z_ref, S_ref, slope_ref); hitting
    probabilities and Green functions do not depend on the frame."""
    if not 0.0 < z < 1.0:
        raise ValidationError("z", f"scale function is defined on (0, 1), got {z}")
    if not 0.0 < z_ref < 1.0:
        raise ValidationError("z_ref", "reference point must be interior")
    return S_ref + slope_ref * scale_increment(od, z_ref, z)


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


def hitting_prob(ip: IntervalProblem, z0: float) -> float:
    """P(reach b before a | Z_0 = z0) = (S(z0) - S(a)) / (S(b) - S(a))."""
    if not ip.a <= z0 <= ip.b_pt:
        raise ValidationError("z0", f"must lie in [{ip.a}, {ip.b_pt}], got {z0}")
    num = scale_increment(ip.od, ip.a, z0)
    den = scale_increment(ip.od, ip.a, ip.b_pt)
    return min(max(num / den, 0.0), 1.0)


def green_function(ip: IntervalProblem, x: float, s: float) -> float:
    """Green function of Z on [a, b]: expected occupation density of s for a
    start at x, killed at the first exit."""
    for name, v in (("x", x), ("s", s)):
        if not ip.a <= v <= ip.b_pt:
            raise ValidationError(name, f"must lie in [{ip.a}, {ip.b_pt}], got {v}")
    den = scale_increment(ip.od, ip.a, ip.b_pt)
    if x <= s:
        lhs = scale_increment(ip.od, ip.a, x)
        rhs = scale_increment(ip.od, s, ip.b_pt)
    else:
        lhs = scale_increment(ip.od, x, ip.b_pt)
        rhs = scale_increment(ip.od, ip.a, s)
    dens = s ** (2.0 * ip.od.a0 - 1.0) * (1.0 - s) ** (2.0 * ip.od.a1 - 1.0)
    # lhs / den <= 1 and the small speed density offsets rhs: no overflow at large a0, a1
    return 2.0 * (lhs / den) * (rhs * dens)


def _panel_nodes(a: float, b: float):
    """Gauss-Legendre nodes and weights on eight equal panels of [a, b]."""
    edges = np.linspace(a, b, 9)
    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts.append(mid + half * _GL_NODES)
        wts.append(half * _GL_WEIGHTS)
    return np.concatenate(pts), np.concatenate(wts)


def expected_cost(ip: IntervalProblem, z0: float, g) -> float:
    """E[ integral of g(Z_t) dt up to the first exit from (a, b) ], via the
    Green function; g is sampled on a Gauss grid split at z0."""
    if not ip.a <= z0 <= ip.b_pt:
        raise ValidationError("z0", f"must lie in [{ip.a}, {ip.b_pt}], got {z0}")
    total = 0.0
    for lo, hi in ((ip.a, z0), (z0, ip.b_pt)):
        if hi <= lo:
            continue
        s, w = _panel_nodes(lo, hi)
        vals = np.array([green_function(ip, z0, si) * g(si) for si in s])
        total += float(w @ vals)
    return total


def expected_cost_scale_form(ip: IntervalProblem, z0: float, g) -> float:
    """Same expected cost through the scale/speed two-integral representation:

    w(z0) = 2 [ u(z0) int_z0^b (S(b)-S(t)) m(t) g(t) dt
              + v(z0) int_a^z0 (S(t)-S(a)) m(t) g(t) dt ],

    with u = (S(z0)-S(a))/(S(b)-S(a)) and v = (S(b)-S(z0))/(S(b)-S(a)) each
    its own scale ratio: v as 1 - u is lost to rounding when u is near 1.
    """
    if not ip.a <= z0 <= ip.b_pt:
        raise ValidationError("z0", f"must lie in [{ip.a}, {ip.b_pt}], got {z0}")
    den = scale_increment(ip.od, ip.a, ip.b_pt)
    u = scale_increment(ip.od, ip.a, z0) / den
    v = scale_increment(ip.od, z0, ip.b_pt) / den
    upper = 0.0
    if z0 < ip.b_pt:
        s, w = _panel_nodes(z0, ip.b_pt)
        vals = np.array([scale_increment(ip.od, si, ip.b_pt) * speed_density(ip.od, si) * g(si) for si in s])
        upper = float(w @ vals)
    lower = 0.0
    if z0 > ip.a:
        s, w = _panel_nodes(ip.a, z0)
        vals = np.array([scale_increment(ip.od, ip.a, si) * speed_density(ip.od, si) * g(si) for si in s])
        lower = float(w @ vals)
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
    if od.a0 <= 0 or od.a1 <= 0:
        raise ValidationError("a0", "return-ratio density requires a0, a1 > 0")
    logc = lgamma(2.0 * (od.a0 + od.a1)) - lgamma(2.0 * od.a0) - lgamma(2.0 * od.a1)
    return math.exp(logc + (2.0 * od.a0 - 1.0) * math.log(z0) + (2.0 * od.a1 - 1.0) * math.log(1.0 - z0))


def stationary_beta_cdf(od: OneDimWf):
    """CDF of the stationary Beta(2 a0, 2 a1) law, for goodness-of-fit tests."""
    return lambda z: special.betainc(2.0 * od.a0, 2.0 * od.a1, np.clip(z, 0.0, 1.0))
