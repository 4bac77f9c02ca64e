"""The beta-indexed scaling family and its diffusion time change.

A family member is an urn with the balanced start ``|B_0| = alpha/(1-beta)``,
which keeps the total ball count constant at ``r* = |b| + alpha/(1-beta)``.
Its predictive mean then follows

    psi_n - psi_{n-1} = -eps(beta) (psi_{n-1} - p) + delta(beta) dM_n,

    eps(beta)   = b (1-beta)^2 / (alpha + b (1-beta)),
    delta(beta) = alpha (1-beta) / (alpha + b (1-beta)),

and the piecewise-constant process ``X_t = psi_{floor(t / (1-beta)^2)}``
converges weakly, as beta -> 1, to the Wright-Fisher diffusion with
mutation kernel ``p = b/|b|`` and drift scale ``b/alpha``.

Grouping colors through a partition commutes with everything here: the
grouped process is itself a (lower-dimensional) urn of the same family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, freeze_arrays
from .urn import UrnParams, UrnTrajectory

__all__ = [
    "ScaledFamilyParams",
    "RescaledPath",
    "Partition",
    "eps_delta",
    "build_family_member",
    "family_member_for_start",
    "rescale_time",
    "project_group",
]


def eps_delta(alpha: float, b_scalar: float, beta: float) -> tuple[float, float]:
    """Per-step reversion and noise coefficients of a balanced family member."""
    # positive form, so that a NaN fails
    if not 0 < alpha < math.inf:
        raise ValidationError("alpha", f"must be finite and > 0, got {alpha}")
    if not 0 < b_scalar < math.inf:
        raise ValidationError("b", f"|b| must be finite and > 0, got {b_scalar}")
    if not 0.0 <= beta < 1.0:
        raise ValidationError("beta", f"scaling family requires 0 <= beta < 1, got {beta}")
    denom = alpha + b_scalar * (1.0 - beta)
    return b_scalar * (1.0 - beta) ** 2 / denom, alpha * (1.0 - beta) / denom


@dataclass(frozen=True)
class ScaledFamilyParams:
    """Family member specification: alpha, fixed vector b, beta.

    ``build_family_member`` takes the balanced start ``B0 = (alpha/(1-beta)) p``,
    which pins psi_0 = p, a concrete convergent initial law;
    ``family_member_for_start`` starts at any interior point instead.
    """

    alpha: float
    b: np.ndarray
    beta: float

    def __post_init__(self):
        freeze_arrays(self, "b")
        if not 0.0 <= self.beta < 1.0:
            raise ValidationError("beta", f"scaling family requires beta in [0, 1), got {self.beta}")
        if not self.r_star < math.inf:  # positive form, so that a NaN fails
            raise ValidationError("alpha", f"|b| + alpha/(1-beta) = {self.r_star} is past the float range")

    @property
    def b_scalar(self) -> float:
        return float(self.b.sum())

    @property
    def p(self) -> np.ndarray:
        return self.b / self.b.sum()

    @property
    def B0_norm(self) -> float:
        return self.alpha / (1.0 - self.beta)

    @property
    def r_star(self) -> float:
        return self.b_scalar + self.B0_norm


def build_family_member(fp: ScaledFamilyParams) -> UrnParams:
    """Urn parameters of the balanced member (constant total ball count)."""
    return UrnParams(alpha=fp.alpha, beta=fp.beta, b=fp.b, B0=fp.B0_norm * fp.p)


def family_member_for_start(fp: ScaledFamilyParams, x0) -> UrnParams:
    """Balanced member whose psi_0 equals the interior simplex point x0.

    Solves B0 = r* x0 - b, which needs every b_i + B0_i = r* x0_i > 0: an
    x0 with a coordinate that is not > 0 (a face of the simplex, or NaN)
    is rejected naming x0.
    """
    x0 = np.asarray(x0, dtype=float)
    if not (x0 > 0).all():  # positive form, so that a NaN fails
        raise ValidationError("x0", f"the start must be inside the simplex, every coordinate > 0, got {x0.tolist()}")
    B0 = fp.r_star * x0 - fp.b
    return UrnParams(alpha=fp.alpha, beta=fp.beta, b=fp.b, B0=B0)


@dataclass(frozen=True)
class RescaledPath:
    """Piecewise-constant sampling of an urn path in diffusion time."""

    t_grid: np.ndarray
    X: np.ndarray  # shape (len(t_grid), k)
    beta: float

    def __post_init__(self):
        freeze_arrays(self, "t_grid", "X")


def step_index(beta: float, t: float) -> int:
    """Urn step index holding the rescaled process at time t."""
    return int(math.floor(t / (1.0 - beta) ** 2))


def rescale_time(traj: UrnTrajectory, t_max: float, dt_out: float) -> RescaledPath:
    """Sample psi at indices ``step_index(beta, t)`` = floor(t/(1-beta)^2) on the grid {0, dt_out, ...}.

    No interpolation is performed; the process is constant on each native
    step of length (1-beta)^2 in rescaled time.  The trajectory must hold
    the ``step_index(beta, t_max)`` steps that the grid up to t_max reads;
    a grid point past t_max reads no further than its last step.  A t_max
    whose quotient t_max/(1-beta)^2 is past the float range is rejected
    naming t-max.
    """
    beta = traj.params.beta
    if beta >= 1.0:
        raise ValidationError("beta", "time rescaling requires beta < 1")
    # positive form, so that a NaN fails; the quotient is finite only when t_max is
    if not (0 <= t_max and t_max / (1.0 - beta) ** 2 < math.inf and 0 < dt_out < math.inf):
        raise ValidationError("t-max", f"need t_max >= 0, t_max/(1-beta)^2 finite and dt_out > 0 finite, got {t_max}, {dt_out}")
    required = step_index(beta, t_max)
    if traj.n_steps < required:
        raise ValidationError(
            "steps",
            f"trajectory has {traj.n_steps} steps but t_max={t_max} at beta={beta} "
            f"requires {required}",
        )
    t_grid = np.arange(0.0, t_max + 0.5 * dt_out, dt_out)
    idx = np.minimum(np.floor(t_grid / (1.0 - beta) ** 2).astype(np.int64), traj.n_steps)
    return RescaledPath(t_grid=t_grid, X=traj.psi[idx], beta=beta)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty groups of colors 1..k covering all of them; k is the largest color."""

    groups: tuple[tuple[int, ...], ...]
    k: int

    def __init__(self, groups: Sequence[Sequence[int]]):
        norm = tuple(tuple(sorted(int(c) for c in g)) for g in groups)
        colors = sorted(c for g in norm for c in g)
        if not colors or not all(norm) or colors != list(range(1, len(colors) + 1)):
            raise ValidationError("partition", f"need nonempty groups holding each color 1..k once, got {groups}")
        object.__setattr__(self, "groups", norm)
        object.__setattr__(self, "k", len(colors))

    def matrix(self) -> np.ndarray:
        """(n_groups, k) aggregation matrix A with A[g, c-1] = 1 for c in group g."""
        A = np.zeros((len(self.groups), self.k))
        for g, cols in enumerate(self.groups):
            for c in cols:
                A[g, c - 1] = 1.0
        return A


def project_group(obj: UrnTrajectory | RescaledPath, partition: Partition):
    """Aggregate colors over the partition.

    For a trajectory the result is again an ``UrnTrajectory``: the grouped
    urn has summed b and B0, the same alpha and beta, grouped draws, and
    grouped predictive means, and it satisfies the grouped one-step
    recursion pathwise on the same draw stream.
    """
    values = obj.X if isinstance(obj, RescaledPath) else obj.psi
    if partition.k != values.shape[1]:
        raise ValidationError("partition", f"partition size {partition.k} does not match dimension {values.shape[1]}")
    A = partition.matrix()
    if isinstance(obj, RescaledPath):
        return RescaledPath(t_grid=obj.t_grid, X=values @ A.T, beta=obj.beta)
    grouped = UrnParams(
        alpha=obj.params.alpha,
        beta=obj.params.beta,
        b=A @ obj.params.b,
        B0=A @ obj.params.B0,
    )
    return UrnTrajectory(
        params=grouped,
        draws=A.argmax(axis=0)[obj.draws - 1] + 1,  # column c - 1 of A holds its one 1 in color c's group
        psi=values @ A.T,
        seed=obj.seed,
    )
