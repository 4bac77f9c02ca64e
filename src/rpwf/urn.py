"""Rescaled Polya urn dynamics.

The urn holds ``b_i + B_{n,i}`` balls of color ``i``; drawing color ``i``
scales the variable part by ``beta`` and adds ``alpha`` balls of that color:

    B_{n+1} = beta * B_n + alpha * xi_{n+1}

with ``xi_{n+1}`` the one-hot draw indicator.  The predictive mean
``psi_n = (b + B_n) / r*_n`` is the conditional law of the next draw, and
the centered increment obeys

    psi_{n+1} - psi_n = -eps_n (psi_n - p) + delta_n (xi_{n+1} - psi_n)

with eps_n = |b|(1-beta)/r*_{n+1} and delta_n = alpha/r*_{n+1}.  All ball
counts are real-valued; ``beta = 1`` (the classical Polya urn) is allowed
here, while the diffusion scaling family requires ``beta < 1``.

Simulation steps psi directly.  The total r*_{n+1} = beta r*_n + (1-beta)|b|
+ alpha does not depend on the draw, so

    r*_{n+1} psi_{n+1} = beta r*_n psi_n + (1 - beta) b + alpha xi_{n+1}

is deterministic apart from xi.  One private kernel, stepped by
``rng.run_streams``, keeps the cumulative sums of psi for M replicas in
(k, M) memory, takes xi from comparing each replica's uniform with them
(the inverse-CDF rule of ``sample_color``), and updates them in place.
``simulate_urn_ensemble`` runs it with M replicas.  ``simulate_urn`` runs
its plain-float twin through ``rng.run_path``: the same operations in the
same order on a list of the k sums and the drawn color, which skips the
kernel's fixed cost of numpy calls per step.
``step``, ``UrnState`` and ``DrawOutcome`` keep the ball-count form as an
independent reference.

Streams: replica i draws its uniforms, one per step, from ``StreamKey(seed,
label, i)``.  Replicas share no arithmetic and the two steps share their
operations, so row i of an ensemble equals ``simulate_urn`` with that key
bit for bit, and ``rng.map_replicas`` can split an ensemble over worker
processes without changing its output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, freeze_arrays
from .rng import StreamKey, check_sizes, checkpoint_steps, map_replicas, record_checkpoints, run_path, run_streams

__all__ = [
    "UrnParams",
    "UrnState",
    "DrawOutcome",
    "UrnTrajectory",
    "new_urn",
    "predictive_mean",
    "step",
    "sample_color",
    "closed_form_B",
    "psi_closed_form",
    "total_balls",
    "increment_decomposition",
    "simulate_urn",
    "simulate_urn_ensemble",
]


@dataclass(frozen=True)
class UrnParams:
    """Fixed urn parameters: reinforcement alpha, scaling beta, ball vectors."""

    alpha: float
    beta: float
    b: np.ndarray
    B0: np.ndarray

    def __post_init__(self):
        b, B0 = freeze_arrays(self, "b", "B0")
        if not 0 < self.alpha < math.inf:  # positive form, so that a NaN fails
            raise ValidationError("alpha", f"must be finite and > 0, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError("beta", f"must lie in [0, 1], got {self.beta}")
        if b.ndim != 1 or b.size < 2 or b.shape != B0.shape:
            raise ValidationError("b", "b and B0 must be equal-length vectors, k >= 2")
        # a total is finite only if every entry is: an inf or a NaN entry, or an overflow, makes it inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            b_total, r0 = float(b.sum()), float(b.sum() + B0.sum())
        if np.any(b < 0) or not 0 < b_total < math.inf:
            raise ValidationError("b", f"fixed ball counts must be >= 0 with a finite total > 0, got {b.tolist()}")
        if not r0 < math.inf:
            raise ValidationError("B0", f"the ball total |b| + |B0| must be finite, got {r0}")
        bad = np.nonzero(b + B0 <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError("B0", f"b_{i+1} + B0_{i+1} = {b[i] + B0[i]} must be > 0")

    @property
    def k(self) -> int:
        return self.b.size

    @property
    def b_total(self) -> float:
        return float(self.b.sum())

    @property
    def p(self) -> np.ndarray:
        return self.b / self.b.sum()

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "b": self.b.tolist(),
            "B0": self.B0.tolist(),
        }


@dataclass(frozen=True)
class UrnState:
    """Urn contents after n steps; r_star is the total ball count."""

    n: int
    B: np.ndarray
    r_star: float

    def __post_init__(self):
        freeze_arrays(self, "B")


@dataclass(frozen=True)
class DrawOutcome:
    """A single draw; colors are numbered 1..k."""

    color: int

    @property
    def index(self) -> int:
        return self.color - 1

    def one_hot(self, k: int) -> np.ndarray:
        xi = np.zeros(k)
        xi[self.index] = 1.0
        return xi


@dataclass(frozen=True)
class UrnTrajectory:
    """A simulated path: draws (length n) and predictive means (length n+1).

    ``psi[n]`` is the predictive mean after n draws; ``draws[n-1]`` is the
    color extracted at step n.
    """

    params: UrnParams
    draws: np.ndarray  # int colors in 1..k, shape (n,)
    psi: np.ndarray  # shape (n+1, k)
    seed: StreamKey

    def __post_init__(self):
        (draws,) = freeze_arrays(self, "draws", dtype=np.int64)
        (psi,) = freeze_arrays(self, "psi")
        if psi.shape != (draws.size + 1, self.params.k):
            raise ValidationError("psi", "psi must have one more row than draws")

    @property
    def n_steps(self) -> int:
        return self.draws.size


def new_urn(params: UrnParams) -> UrnState:
    """Initial state: n = 0, B = B0, r* = |b| + |B0|."""
    return UrnState(n=0, B=params.B0.copy(), r_star=float(params.b.sum() + params.B0.sum()))


def predictive_mean(params: UrnParams, state: UrnState) -> np.ndarray:
    """Conditional law of the next draw, (b + B_n) / r*_n."""
    return (params.b + state.B) / state.r_star


def sample_color(psi: np.ndarray, u: float) -> int:
    """Inverse-CDF draw on psi with fixed left-to-right color order.

    Returns a 0-based index; cumulative-sum ties resolve to the smallest
    index, and u >= 1 (possible only through rounding) maps to the last color.
    """
    cum = np.cumsum(psi)
    return min(int(np.searchsorted(cum, u, side="right")), psi.size - 1)


def step(params: UrnParams, state: UrnState, rng: np.random.Generator):
    """Draw one ball and update: B' = beta*B + alpha*xi.

    Returns ``(new_state, outcome)``.  The total r* is recomputed from the
    new contents, which keeps the state invariant r* = |b| + |B| exact.
    """
    psi = predictive_mean(params, state)
    idx = sample_color(psi, rng.random())
    B = params.beta * state.B
    B[idx] += params.alpha
    new = UrnState(n=state.n + 1, B=B, r_star=float(params.b.sum() + B.sum()))
    return new, DrawOutcome(color=idx + 1)


def _check_colors(draws, k: float) -> np.ndarray:
    """``draws`` as int64 colors; each must be an integer in [1, k], else a ValidationError names draws."""
    d = np.asarray(draws)
    # positive form, so that a NaN (every comparison false) fails
    if not np.all((1 <= d) & (d <= k) & (d < math.inf) & (np.floor(d) == d)):
        raise ValidationError("draws", f"colors must be integers in [1, {k}]")
    return d.astype(np.int64)


def closed_form_B(params: UrnParams, draws: np.ndarray, n: int) -> np.ndarray:
    """Evaluate B_n = beta^n B_0 + alpha * sum_h beta^(n-h) xi_h directly.

    Powers are accumulated forward (beta^(n-h), largest h first in weight)
    so that nothing overflows for beta near 0; the summation order differs
    from the step recursion, making this an independent floating-point path.
    ``draws`` holds the int colors 1..k of ``UrnTrajectory.draws``.
    """
    draws = _check_colors(draws, params.k) - 1
    if n > draws.size:
        raise ValidationError("n", f"need {n} draws, trajectory has {draws.size}")
    if n < 0:
        raise ValidationError("n", "n must be >= 0")
    k = params.k
    if n == 0:
        return params.B0.copy()
    powers = params.beta ** np.arange(n - 1, -1, -1, dtype=float)  # beta^(n-h), h=1..n
    onehot = np.zeros((n, k))
    onehot[np.arange(n), draws[:n]] = 1.0
    return params.beta**n * params.B0 + params.alpha * (powers @ onehot)


def total_balls(params: UrnParams, n: int) -> float:
    """Total ball count r*_n in closed form (geometric for beta<1, linear at beta=1)."""
    if n < 0:
        raise ValidationError("n", "n must be >= 0")
    s0 = float(params.B0.sum())
    if params.beta == 1.0:
        return params.b_total + s0 + n * params.alpha
    r = params.alpha / (1.0 - params.beta)
    return params.b_total + r + params.beta**n * (s0 - r)


def psi_closed_form(params: UrnParams, draws, n: int) -> np.ndarray:
    """psi_n evaluated from the closed forms for B_n and r*_n."""
    return (params.b + closed_form_B(params, draws, n)) / total_balls(params, n)


def increment_decomposition(params: UrnParams, state: UrnState, draw: DrawOutcome):
    """Coefficients of the centered one-step identity at this state/draw.

    Returns ``(eps_n, delta_n, delta_M)`` with delta_M = xi_{n+1} - psi_n,
    such that psi_{n+1} - psi_n = -eps_n (psi_n - p) + delta_n delta_M.
    """
    psi = predictive_mean(params, state)
    xi = draw.one_hot(params.k)
    B_next = params.beta * state.B + params.alpha * xi
    r_next = params.b.sum() + B_next.sum()
    eps_n = params.b_total * (1.0 - params.beta) / r_next
    delta_n = params.alpha / r_next
    return eps_n, delta_n, xi - psi


def _urn_start(params: UrnParams, n_steps: int):
    """The cumulative sums of psi_0 and an iterator over the steps' ``(f, g, a)``.

    Step n + 1 maps the sums ``cum`` of psi_n to ``f cum + g cumsum(b) + a
    below``, with (f, g, a) = (beta r*_n, 1 - beta, alpha) / r*_{n+1} and
    r*_{n+1} = beta r*_n + (1 - beta)|b| + alpha, the same for every draw.
    Rejects, naming alpha, a ball total that can pass the float range
    within ``n_steps`` steps.
    """
    beta, alpha = params.beta, params.alpha
    gain = (1.0 - beta) * params.b_total + alpha
    r = params.b_total + float(params.B0.sum())
    if not r + n_steps * gain < math.inf:  # r*_n <= r*_0 + n gain
        raise ValidationError("alpha", f"the ball total can pass the float range within {n_steps} steps")

    def coefficients(r):
        while True:
            r_next = beta * r + gain
            yield beta * r / r_next, (1.0 - beta) / r_next, alpha / r_next
            r = r_next

    return np.cumsum((params.b + params.B0) / r), coefficients(r)


def _run_urns(params: UrnParams, n_steps: int, keys: Sequence[StreamKey], observe, budget: int) -> None:
    """Run one urn per stream key, one uniform per step, through ``run_streams`` on a noise ``budget``.

    The state ``cum`` is an (M, k) view of (k, M) memory: row i holds the
    cumulative sums psi_{n,1}, psi_{n,1} + psi_{n,2}, ..., |psi_n| of
    replica i.  ``below = u < cum`` (last entry always true) marks the
    colors at or after the draw for its uniform u, so the drawn index is the
    number of false entries: ``sample_color``'s rule.  Then, in place, cum
    becomes ``f cum + g cumsum(b) + a below`` with the coefficients of
    ``_urn_start``.  ``observe(n, cum)`` must copy what it keeps.
    """
    cum0, coefficients = _urn_start(params, n_steps)
    cum = np.repeat(cum0[:, None], len(keys), axis=1)
    below = np.ones(cum.shape, dtype=bool)
    b_col = np.cumsum(params.b)[:, None]

    def kernel(state, u):
        f, g, a = next(coefficients)
        cum = state.T
        np.less(u, cum[:-1], out=below[:-1])
        cum *= f
        cum += g * b_col
        cum += below * a
        return state

    run_streams(keys, n_steps, cum.T, kernel, observe, budget=budget)


def _urn_step(params: UrnParams, n_steps: int):
    """``_run_urns``' kernel for one urn in plain floats: ``(start, step)`` for ``rng.run_path``.

    ``step(c, u)`` takes the k cumulative sums of psi_n and a color slot and
    returns those of psi_{n+1} and the color drawn with the uniform u: the
    kernel's operations in its order, so it equals it bit for bit.  It takes
    one path's steps in order from ``start``, the sums of psi_0 and a 0.
    """
    cum0, coefficients = _urn_start(params, n_steps)
    *b_head, b_last = np.cumsum(params.b).tolist()

    def step(c, u):
        f, g, a = next(coefficients)
        row, color = [], 1  # one more than the number of sums at or below u
        for ci, bi in zip(c, b_head):  # the sums before the last: below is u < ci
            if u < ci:
                row.append(ci * f + g * bi + a)
            else:
                row.append(ci * f + g * bi + 0.0)
                color += 1
        row += (c[-2] * f + g * b_last + a, color)  # the last sum, then the color
        return row

    return [*cum0.tolist(), 0.0], step


def simulate_urn(params: UrnParams, n_steps: int, seed: StreamKey | int) -> UrnTrajectory:
    """Simulate one trajectory; deterministic in the stream key.

    An int seed draws from ``StreamKey(seed, "urn")``.  It runs the urn
    kernel's operations in plain floats, in the kernel's order, so it
    equals bit for bit the ensemble row that draws from the same stream key.
    """
    check_sizes(n_steps, 1)
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), "urn")
    start, step = _urn_step(params, n_steps)
    rows = run_path(key, n_steps, start, step, "steps")  # the sums of psi_n, then the color drawn at step n
    return UrnTrajectory(params=params, draws=rows[1:, -1], psi=np.diff(rows[:, :-1], axis=1, prepend=0.0), seed=key)


def _urn_checkpoints(params: UrnParams, n_steps: int, at: dict, n_out: int, keys: Sequence[StreamKey], budget: int) -> np.ndarray:
    """``(n_out, len(keys), k)`` predictive means after the steps of ``at``: one slice of an ensemble."""
    out = np.empty((n_out, len(keys), params.k))
    _run_urns(params, n_steps, keys, record_checkpoints(at, out, lambda cum: np.diff(cum, axis=1, prepend=0.0)), budget)
    return out


def simulate_urn_ensemble(
    params: UrnParams,
    n_steps: int,
    n_replicas: int,
    seed: int,
    label: str = "urn",
    checkpoints: Sequence[int] | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Predictive means of independent replicas at the given step indices.

    Replica ``i`` consumes exactly the stream ``StreamKey(seed, label, i)``
    and runs the same arithmetic as ``simulate_urn`` with that key, so each
    row equals that single run bit for bit, and the output does not depend
    on ``workers``, the number of processes the replicas are split over
    (``rng.map_replicas``; None takes its default).

    Returns an array of shape ``(len(checkpoints), n_replicas, k)``; the
    default checkpoint list is ``[n_steps]``.
    """
    check_sizes(n_steps, n_replicas)
    cp_list = [int(c) for c in (checkpoints if checkpoints is not None else [n_steps])]
    job = functools.partial(_urn_checkpoints, params, n_steps, checkpoint_steps(cp_list, n_steps, int), len(cp_list))
    return map_replicas(job, [StreamKey(seed, label, i) for i in range(n_replicas)], workers, n_steps)
