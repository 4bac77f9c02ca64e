"""k-allele Wright-Fisher diffusion with mutation.

The limiting dynamics of the urn scaling family:

    dX_t = -(b/alpha) (X_t - p) dt + Sigma(X_t) dW_t,

where ``Sigma(x) Sigma(x)^T = diag(x) - x x^T`` and Sigma is the explicit
lower-triangular square root with zero column sums (so paths stay on the
affine hull of the simplex).  Discretization is Euler-Maruyama followed by
a clamp-and-renormalize projection back onto the simplex.  A step forms the
noise (Sigma z)_i = diag_i z_i - x_i sum_{j<i} col_j z_j in O(k) per point.
Batches keep their (M, k) shape, but the ensemble state and noise live
component-major, as (M, k) views of (k, M) memory with the replica axis
last, so every per-component pass of a step runs over a contiguous row.

The 1-d marginal / grouped process ``Z`` solves

    dZ = (-a1 Z + a0 (1-Z)) dt + sqrt(max(0, Z(1-Z))) dW

with a0 = (b/alpha) * sum_{l in J} p_l and a1 = b/alpha - a0.

Ensembles run on ``rng.run_streams`` (kernels ``em_update`` and the 1-d
update; observers keep checkpoints or stopped paths, retiring exited ones).
Path i draws from ``StreamKey(seed, label, i)``, at any worker count: every
ensemble, first exits included, splits its paths into contiguous slices
through ``rng.map_replicas``.  Each kernel has a plain-float step with the
same operation order, so the bits do not change: ``_em_step`` (with
``simplex._project_floats``) and ``_marginal_step``.  The single paths ``simulate_wf`` and
``simulate_marginal_1d`` run in them through ``rng.run_path`` and equal
row i of an ensemble bit for bit.  The 1-d vector step writes into reused
scratch rows, and a step in which no path leaves (a, b) costs the exit
test one reduction per barrier inside [0, 1].  Every 1-d ensemble is one
run of paths stopped on leaving an interval (a, b), ``_first_exit``: each
path's time tau (nan if never) and its value then, or after the last
step.  Values at t (``marginal_ensemble_values``) stop on leaving
(-inf, inf), which never happens, and touch flags on leaving
(level, inf).  Such a run finishes its last ``rng._SCALAR_TAIL`` paths one
at a time in ``_marginal_step`` and the exit test, from the end of the
noise block at which no more are live (at n = 0 if no more start), on each
path's own next draws; each slice of a split run has its own tail.
``simulate_wf_ensemble`` stays on the vector step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, freeze_arrays
from .rng import StreamKey, check_sizes, checkpoint_steps, map_replicas, record_checkpoints, run_path, run_streams
from .simplex import _project_floats, check_simplex, project_to_simplex

__all__ = [
    "WfParams",
    "SdeConfig",
    "OneDimWf",
    "PathRecord",
    "sigma",
    "sigma_batch",
    "drift",
    "em_update",
    "simulate_wf",
    "simulate_wf_ensemble",
    "mean_ode",
    "simulate_marginal_1d",
    "marginal_ensemble_values",
    "marginal_first_passage",
    "marginal_touch_flags",
]


@dataclass(frozen=True)
class WfParams:
    """Drift scale b, noise scale alpha, mutation kernel p (interior simplex point)."""

    b: float
    alpha: float
    p: np.ndarray

    def __post_init__(self):
        (p,) = freeze_arrays(self, "p")
        # positive form, so that a NaN (every comparison false) fails
        if not 0 < self.b < math.inf:
            raise ValidationError("b", f"|b| must be finite and > 0, got {self.b}")
        if not 0 < self.alpha < math.inf:
            raise ValidationError("alpha", f"must be finite and > 0, got {self.alpha}")
        if not self.rate < math.inf:
            raise ValidationError("alpha", f"b/alpha = {self.b}/{self.alpha} is past the float range")
        check_simplex(p, "p")
        if np.any(p <= 0):
            raise ValidationError("p", "mutation kernel must be strictly positive")

    @property
    def k(self) -> int:
        return self.p.size

    @property
    def rate(self) -> float:
        """Mean-reversion rate b/alpha."""
        return self.b / self.alpha


@dataclass(frozen=True)
class SdeConfig:
    """Discretization settings: the Euler-Maruyama step dt."""

    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValidationError("dt", f"must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class OneDimWf:
    """Coefficients of the 1-d marginal SDE; a_z classifies the boundary z."""

    a0: float
    a1: float

    def __post_init__(self):
        for name in ("a0", "a1"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # positive form, so that a NaN fails
                raise ValidationError(name, f"must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PathRecord:
    """Time grid, simplex-valued path and the stream that produced it."""

    t: np.ndarray
    X: np.ndarray
    seed: StreamKey

    def __post_init__(self):
        freeze_arrays(self, "t", "X")


def sigma(x) -> np.ndarray:
    """Lower-triangular square root of diag(x) - x x^T.

    Rows and columns touching a zero component are exactly zero; column
    sums vanish identically.
    """
    x = check_simplex(x, "x")
    return sigma_batch(x[None, :])[0]


def _sigma_factors(XT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of Sigma for a component-major (k, M) batch: Sigma_ii = diag_i, Sigma_ij = -x_i col_j for j < i.

    Every pass runs over whole component rows; diag and col are (k, M).
    """
    k = XT.shape[0]
    tail = np.empty((k + 1,) + XT.shape[1:])  # tail[j] = S_j = sum_{l >= j} x_l, one pass per component
    tail[k] = 0.0
    for j in range(k - 1, -1, -1):
        np.add(tail[j + 1], XT[j], out=tail[j])
    S, S_next = tail[:-1], tail[1:]
    positive = tail > 0
    diag, col = np.empty((2,) + XT.shape)
    np.multiply(XT, S_next, out=diag)  # diag_j = sqrt(x_j S_{j+1} / S_j); 0 where S_j = 0
    np.divide(diag, S, out=diag, where=positive[:-1])
    np.sqrt(np.maximum(diag, 0.0, out=diag), out=diag)
    # col_j = diag_j / S_{j+1} <= 1 / sqrt(S_{j+1}) cannot overflow; 0 where the suffix runs out
    col.fill(0.0)
    np.divide(diag, S_next, out=col, where=positive[1:])
    return diag, col


def sigma_batch(X: np.ndarray) -> np.ndarray:
    """Vectorized ``sigma`` for an (M, k) batch of simplex points."""
    X = np.asarray(X, dtype=float)
    M, k = X.shape
    diag, col = _sigma_factors(X.T)
    out = np.zeros((M, k, k))
    li, lj = np.tril_indices(k, k=-1)
    out[:, li, lj] = -X[:, li] * col.T[:, lj]
    idx = np.arange(k)
    out[:, idx, idx] = diag.T
    return out


def drift(x, params: WfParams) -> np.ndarray:
    """Mean-reverting drift -(b/alpha)(x - p) of a point or an (M, k) batch; components sum to zero.

    Only the length of the last axis is checked: this runs in every
    Euler-Maruyama step.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (params.k,):
        raise ValidationError("x", f"expected {params.k} coordinates, got shape {x.shape}")
    return -params.rate * (x - params.p)


def _sigma_z(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows of Sigma(x) z in O(k): (Sigma z)_i = diag_i z_i - x_i sum_{j<i} col_j z_j."""
    XT, ZT = X.T, Z.T
    diag, col = _sigma_factors(XT)
    cz = np.multiply(col, ZT, out=col)
    run = np.empty_like(cz)  # run[i] = sum_{j<i} col_j z_j, one pass per component
    run[0] = 0.0
    for i in range(1, XT.shape[0]):
        np.add(run[i - 1], cz[i - 1], out=run[i])
    out = np.multiply(diag, ZT, out=diag)
    out -= np.multiply(XT, run, out=run)
    return out.T


def em_update(x, z, params: WfParams, dt: float) -> np.ndarray:
    """One deterministic Euler-Maruyama update of an (M, k) batch given the normal draws z (M, k).

    A single point is a batch of one.  The noise Sigma(x) z costs O(k) per
    point; the (M, k, k) matrices of ``sigma_batch`` are never built.  The
    result is projected exactly onto the simplex.  It comes back as an
    (M, k) view of (k, M) memory, the layout the arithmetic runs fastest
    on: given such views for x and z, every pass reads and writes
    contiguous rows.
    """
    x = np.asarray(x, dtype=float)
    noise = _sigma_z(x, np.asarray(z, dtype=float))
    noise *= math.sqrt(dt)
    v = drift(x, params)  # laid out like x
    v *= dt
    v += x
    v += noise
    return project_to_simplex(v)


# five times the most Euler-Maruyama steps anything here runs (2e7: marginal_first_passage's
# default t_cap = 200 at dt = 1e-5); more are rejected before anything runs
_MAX_STEPS = 100_000_000


def _n_steps(t: float, dt: float, name: str) -> int:
    """Number of steps of size dt that cover [0, t]."""
    if not 0 < dt < math.inf:
        raise ValidationError("dt", f"must be finite and > 0, got {dt}")
    if not 0 <= t < math.inf:
        raise ValidationError(name, f"must be finite and >= 0, got {t}")
    if not t / dt <= _MAX_STEPS:
        raise ValidationError(name, f"{t} / dt = {t / dt:.4g} steps is over {_MAX_STEPS}")
    return int(math.ceil(t / dt))


def _check_x0(params: WfParams, x0) -> np.ndarray:
    """x0 as a point of the simplex with the k coordinates of ``params``."""
    x0 = check_simplex(x0, "x0")
    if x0.size != params.k:
        raise ValidationError("x0", f"expected {params.k} coordinates, got {x0.size}")
    return x0


def _em_step(params: WfParams, dt: float):
    """``em_update`` for one point in plain floats: ``step(x, z)`` maps a list of k floats and k normals to the next point.

    It takes ``em_update``'s operations in their order (``_sigma_factors``'
    suffix sums and guarded divides, the running sum of ``_sigma_z``, the
    drift, then ``_project_floats``), so it equals it bit for bit.
    """
    k, p, neg_rate, sdt, sqrt = params.k, params.p.tolist(), -params.rate, math.sqrt(dt), math.sqrt

    def step(x, z):
        S = [0.0] * (k + 1)  # S[i] = x_i + ... + x_{k-1}, added from the last component
        for i in range(k - 1, -1, -1):
            S[i] = S[i + 1] + x[i]
        run, v = 0.0, []  # run = sum_{j<i} col_j z_j
        for i in range(k):
            xi, zi, s, s1 = x[i], z[i], S[i], S[i + 1]
            d = xi * s1 / s if s > 0.0 else xi * s1
            d = sqrt(0.0 if d <= 0.0 else d)  # np.maximum(d, 0.0): nan passes, -0.0 becomes 0.0
            v.append(neg_rate * (xi - p[i]) * dt + xi + (d * zi - xi * run) * sdt)
            run += (d / s1 if s1 > 0.0 else 0.0) * zi
        return _project_floats(v)

    return step


def simulate_wf(
    params: WfParams,
    x0,
    t_max: float,
    config: SdeConfig = SdeConfig(),
    seed: StreamKey | int = 0,
) -> PathRecord:
    """Full path on the grid {0, dt, ..., ceil(t_max/dt)*dt}; an int seed draws from ``StreamKey(seed, "wf")``."""
    x0 = _check_x0(params, x0)
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), "wf")
    n = _n_steps(t_max, config.dt, "t-max")
    X = run_path(key, n, x0.tolist(), _em_step(params, config.dt), "t-max", "standard_normal", (params.k,))
    return PathRecord(t=config.dt * np.arange(n + 1), X=X, seed=key)


def _wf_checkpoints(params: WfParams, x0, n_steps: int, dt: float, at: dict, n_out: int, keys, budget: int) -> np.ndarray:
    """``(n_out, len(keys), k)`` Euler-Maruyama path values from x0 after the steps of ``at``: one slice of an ensemble."""
    out = np.empty((n_out, len(keys), params.k))
    kernel = lambda X, z: em_update(X, z, params, dt)
    observe = record_checkpoints(at, out, lambda X: X)
    run_streams(keys, n_steps, np.tile(x0, (len(keys), 1)), kernel, observe, "standard_normal", (params.k,), budget=budget)
    return out


def simulate_wf_ensemble(
    params: WfParams,
    x0,
    t_max: float,
    config: SdeConfig,
    n_paths: int,
    seed: int,
    label: str = "wf",
    checkpoints: Sequence[float] | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Ensemble values at checkpoint times; path i uses stream (seed, label, i).

    Returns shape ``(len(checkpoints), n_paths, k)``; default checkpoint is
    ``t_max``.  Checkpoint times must lie in [0, t_max] and snap to the
    step grid by rounding.  Row i equals ``simulate_wf`` on that stream,
    whatever the number of worker processes the paths are split over
    (``rng.map_replicas``; None takes its default).
    """
    x0 = _check_x0(params, x0)
    n = _n_steps(t_max, config.dt, "t-max")
    check_sizes(n, n_paths)
    checkpoints = list(checkpoints) if checkpoints is not None else [t_max]
    at = checkpoint_steps(checkpoints, t_max, lambda t: int(round(t / config.dt)))
    job = functools.partial(_wf_checkpoints, params, x0, n, config.dt, at, len(checkpoints))
    return map_replicas(job, [StreamKey(seed, label, i) for i in range(n_paths)], workers, n * params.k)


def mean_ode(params: WfParams, x0, t: float) -> np.ndarray:
    """Exact first moment E[X_t] = p + (x0 - p) e^{-(b/alpha) t}."""
    if not t >= 0:  # positive form, so that a NaN fails
        raise ValidationError("t", f"must be >= 0, got {t}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1:] != (params.k,):
        raise ValidationError("x0", f"expected {params.k} coordinates, got shape {x0.shape}")
    return params.p + (x0 - params.p) * math.exp(-params.rate * t)


_MARGINAL = "wf1d"  # the stream label of every 1-d marginal path


def _marginal_em(z: np.ndarray, zn: np.ndarray, od: OneDimWf, dt: float, work: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step of 1-d values z with the normal draws zn, written over z; returns z.

    The step is clip(z + d + noise, 0, 1) with d = (-a1 z + a0 (1 - z)) dt
    and noise = sqrt(max(z (1 - z), 0) dt) zn.  ``work`` is a (3, M')
    scratch array, M' >= len(z), so the step allocates nothing.
    """
    d, u, w = work[:, : z.size]
    np.multiply(-od.a1, z, out=d)
    np.subtract(1.0, z, out=w)
    np.multiply(od.a0, w, out=u)
    d += u
    d *= dt
    np.multiply(z, w, out=w)
    np.maximum(w, 0.0, out=w)
    w *= dt
    np.sqrt(w, out=w)
    w *= zn
    z += d
    z += w
    return z.clip(0.0, 1.0, out=z)


def _marginal_step(od: OneDimWf, dt: float):
    """``_marginal_em`` for one value in plain floats: ``step(z, zn)`` is the value after z with the normal draw zn.

    It takes ``_marginal_em``'s operations in their order, so it equals it
    bit for bit.
    """
    a0, a1, sqrt = od.a0, od.a1, math.sqrt

    def step(z, zn):
        w = z * (1.0 - z)
        z = z + (-a1 * z + a0 * (1.0 - z)) * dt + sqrt((0.0 if w <= 0.0 else w) * dt) * zn  # np.maximum(w, 0.0)
        return 0.0 if z < 0.0 else 1.0 if z > 1.0 else z  # np.clip's rule: -0.0 and nan pass

    return step


def _check_z0(z0: float) -> float:
    """z0 as a float in [0, 1]."""
    if not 0.0 <= z0 <= 1.0:
        raise ValidationError("z0", f"must lie in [0, 1], got {z0}")
    return float(z0)


def simulate_marginal_1d(
    od: OneDimWf,
    z0: float,
    t_max: float,
    config: SdeConfig = SdeConfig(),
    seed: StreamKey | int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Single 1-d path clamped to [0, 1]; returns (t, z).  An int seed draws from ``StreamKey(seed, "wf1d")``."""
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), _MARGINAL)
    n = _n_steps(t_max, config.dt, "t-max")
    z = run_path(key, n, _check_z0(z0), _marginal_step(od, config.dt), "t-max", "standard_normal")
    return config.dt * np.arange(n + 1), z


def marginal_ensemble_values(od: OneDimWf, z0: float, t: float, dt: float, n_paths: int, seed: int) -> np.ndarray:
    """Values of n_paths independent 1-d paths at time t; path i draws from ``StreamKey(seed, "wf1d", i)``.

    They are the stopped values of a first exit of (-inf, inf), which no
    path leaves.  The paths split over ``rng.map_replicas``'s default worker
    count; the values do not depend on it.
    """
    return _first_exit(od, z0, -math.inf, math.inf, _n_steps(t, dt, "t"), dt, n_paths, seed)[1]


def _exit_slice(od, z0, a, b, n_steps, dt, keys, budget) -> np.ndarray:
    """``(2, len(keys))`` paths stopped on leaving (a, b), as (tau, Z at min(tau, T)): one slice.

    tau is the time of a path's first step at or beyond a or b, and nan if
    none; the value is the path's at tau, or after the last step if none.
    Exited paths retire; the last ``rng._SCALAR_TAIL`` finish alone in
    plain floats.
    """
    result = np.full((2, len(keys)), np.nan)
    tau, z_stop = result
    ids = np.arange(len(keys))
    lower, upper = a >= 0.0, b <= 1.0  # a barrier outside [0, 1], where the paths stay, is never reached

    def exits(n, z):  # retires the paths that left (a, b) at step n
        nonlocal ids
        if n == n_steps:  # the paths still inside stop here
            z_stop[ids] = z
        # none left: a reduction per barrier in reach (a nan row fails it, and stays below)
        if (not lower or np.minimum.reduce(z) > a) and (not upper or np.maximum.reduce(z) < b):
            return None
        out = (z <= a) | (z >= b)
        left = np.flatnonzero(out)
        if left.size:  # none, if only nan rows failed the test above
            keep = np.flatnonzero(~out)
            gone = ids[left]
            tau[gone], z_stop[gone] = n * dt, z[left]
            ids = ids[keep]
            return keep

    em = _marginal_step(od, dt)

    def tail(j, n, z, zn):  # path ids[j], alone in plain floats: stopped once it leaves (a, b), or at step n_steps
        z = em(z, zn)
        if z <= a or z >= b:
            tau[ids[j]] = n * dt
        elif n < n_steps:
            return z
        z_stop[ids[j]] = z
        return None

    work = np.empty((3, len(keys)))
    kernel = lambda z, zn: _marginal_em(z, zn, od, dt, work)
    run_streams(keys, n_steps, np.full(len(keys), z0), kernel, exits, "standard_normal", scalar=tail, budget=budget)
    return result


def _first_exit(od, z0, a, b, n_steps, dt, n_paths, seed) -> np.ndarray:
    """``(2, n_paths)`` paths stopped on leaving (a, b) within n_steps steps, as ``_exit_slice`` gives them.

    The paths split over ``rng.map_replicas``'s default worker count; the results do not depend on it.
    """
    check_sizes(n_steps, n_paths)
    job = functools.partial(_exit_slice, od, _check_z0(z0), a, b, n_steps, dt)
    return map_replicas(job, [StreamKey(seed, _MARGINAL, i) for i in range(n_paths)], None, n_steps)


def _check_barriers(**levels: float) -> None:
    """Reject a nan barrier, which no path would ever cross, naming it."""
    for name, level in levels.items():
        if math.isnan(level):
            raise ValidationError(name, f"must be a number, got {level}")


def marginal_touch_flags(
    od: OneDimWf, z0: float, level: float, t_max: float, dt: float, n_paths: int, seed: int
) -> np.ndarray:
    """Per-path flag: did the path enter [0, level] by time t_max."""
    _check_barriers(level=level)
    tau, _ = _first_exit(od, z0, level, np.inf, _n_steps(t_max, dt, "t-max"), dt, n_paths, seed)
    return ~np.isnan(tau)


def marginal_first_passage(
    od: OneDimWf,
    z0: float,
    a: float,
    b: float,
    dt: float,
    n_paths: int,
    seed: int,
    t_cap: float = 200.0,
) -> tuple[np.ndarray, np.ndarray]:
    """First exit of (a, b): returns (exit times, hit-upper flags).

    Crossing is detected on the discrete path (first step at or beyond a
    level); paths still inside at t_cap get time nan.
    """
    _check_barriers(a=a, b=b)
    if not a < z0 < b:
        raise ValidationError("z0", f"need a < z0 < b, got a={a}, z0={z0}, b={b}")
    tau, z_stop = _first_exit(od, z0, a, b, _n_steps(t_cap, dt, "t-cap"), dt, n_paths, seed)
    return tau, z_stop >= b
