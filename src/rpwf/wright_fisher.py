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

Both run on ``rng.run_streams`` (kernels ``em_update`` and the 1-d update;
observers keep checkpoints, full paths or first exits, retiring exited
paths).  Path i draws from ``StreamKey(seed, label, i)``, at any worker
count; a single path is an ensemble of one, equal bit for bit to row i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, freeze_arrays
from .rng import StreamKey, check_sizes, checkpoint_steps, map_replicas, record_checkpoints, run_streams
from .simplex import check_simplex, project_to_simplex

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
        if not self.b > 0:
            raise ValidationError("b", f"|b| must be > 0, got {self.b}")
        if not self.alpha > 0:
            raise ValidationError("alpha", f"must be > 0, got {self.alpha}")
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

    def as_dict(self) -> dict:
        return {"b": self.b, "alpha": self.alpha, "p": self.p.tolist()}


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
    """Mean-reverting drift -(b/alpha)(x - p); components sum to zero."""
    x = np.asarray(x, dtype=float)
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
    """One deterministic Euler-Maruyama update given the normal draw z.

    Works on a single point (k,) with z (k,), or a batch (M, k) with
    z (M, k).  The noise Sigma(x) z costs O(k) per point; the (M, k, k)
    matrices of ``sigma_batch`` are never built.  The result is projected
    exactly onto the simplex.  A batch comes back as an (M, k) view of
    (k, M) memory, the layout the arithmetic runs fastest on: given such
    views for x and z, every pass reads and writes contiguous rows.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    noise = _sigma_z(xb, np.atleast_2d(z))
    noise *= math.sqrt(dt)
    v = drift(xb, params)  # laid out like xb
    v *= dt
    v += xb
    v += noise
    out = project_to_simplex(v)
    return out[0] if single else out


def _n_steps(t: float, dt: float, name: str) -> int:
    """Number of steps of size dt that cover [0, t]."""
    if not 0 < dt < math.inf:
        raise ValidationError("dt", f"must be finite and > 0, got {dt}")
    if not 0 <= t < math.inf:
        raise ValidationError(name, f"must be finite and >= 0, got {t}")
    return int(math.ceil(t / dt))


def _run_em(params: WfParams, x0: np.ndarray, n_steps: int, dt: float, keys, observe) -> None:
    """Euler-Maruyama paths from x0, one per stream key; k normals per step."""
    X = np.tile(x0, (len(keys), 1))
    run_streams(keys, n_steps, X, lambda X, z: em_update(X, z, params, dt), observe, "standard_normal", (params.k,))


def simulate_wf(
    params: WfParams,
    x0,
    t_max: float,
    config: SdeConfig = SdeConfig(),
    seed: StreamKey | int = 0,
    label: str = "wf",
) -> PathRecord:
    """Full path on the grid {0, dt, ..., ceil(t_max/dt)*dt}; deterministic in seed."""
    x0 = check_simplex(x0, "x0")
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), label)
    n = _n_steps(t_max, config.dt, "t-max")
    X = np.empty((n + 1, params.k))

    def record(i, state):
        X[i] = state[0]

    _run_em(params, x0, n, config.dt, [key], record)
    return PathRecord(t=config.dt * np.arange(n + 1), X=X, seed=key)


def _wf_checkpoints(params: WfParams, x0, n_steps: int, dt: float, at: dict, n_out: int, keys) -> np.ndarray:
    """``(n_out, len(keys), k)`` path values after the steps of ``at``: one slice of an ensemble."""
    out = np.empty((n_out, len(keys), params.k))
    _run_em(params, x0, n_steps, dt, keys, record_checkpoints(at, out, lambda X: X))
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
    workers: int = 1,
) -> np.ndarray:
    """Ensemble values at checkpoint times; path i uses stream (seed, label, i).

    Returns shape ``(len(checkpoints), n_paths, k)``; default checkpoint is
    ``t_max``.  Checkpoint times must lie in [0, t_max] and snap to the
    step grid by rounding.  Row i equals ``simulate_wf`` on that stream,
    whatever the number of worker processes the paths are split over.
    """
    x0 = check_simplex(x0, "x0")
    n = _n_steps(t_max, config.dt, "t-max")
    check_sizes(n, n_paths)
    checkpoints = list(checkpoints) if checkpoints is not None else [t_max]
    at = checkpoint_steps(checkpoints, t_max, lambda t: int(round(t / config.dt)))
    job = functools.partial(_wf_checkpoints, params, x0, n, config.dt, at, len(checkpoints))
    return map_replicas(job, [StreamKey(seed, label, i) for i in range(n_paths)], workers)


def mean_ode(params: WfParams, x0, t: float) -> np.ndarray:
    """Exact first moment E[X_t] = p + (x0 - p) e^{-(b/alpha) t}."""
    if t < 0:
        raise ValidationError("t", "t must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    return params.p + (x0 - params.p) * math.exp(-params.rate * t)


def _marginal_em(z: np.ndarray, zn: np.ndarray, od: OneDimWf, dt: float) -> np.ndarray:
    d = (-od.a1 * z + od.a0 * (1.0 - z)) * dt
    noise = np.sqrt(np.maximum(z * (1.0 - z), 0.0) * dt) * zn
    return np.clip(z + d + noise, 0.0, 1.0)


def _run_marginal(od: OneDimWf, z0: float, n_steps: int, dt: float, keys, observe=lambda n, z: None) -> np.ndarray:
    """1-d marginal paths from z0, one per stream key; returns the last values."""
    if not 0.0 <= z0 <= 1.0:
        raise ValidationError("z0", f"must lie in [0, 1], got {z0}")
    z = np.full(len(keys), float(z0))
    return run_streams(keys, n_steps, z, lambda z, zn: _marginal_em(z, zn, od, dt), observe, "standard_normal")


def simulate_marginal_1d(
    od: OneDimWf,
    z0: float,
    t_max: float,
    config: SdeConfig = SdeConfig(),
    seed: StreamKey | int = 0,
    label: str = "wf1d",
) -> tuple[np.ndarray, np.ndarray]:
    """Single 1-d path clamped to [0, 1]; returns (t, z)."""
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), label)
    n = _n_steps(t_max, config.dt, "t-max")
    z = np.empty(n + 1)

    def record(i, state):
        z[i] = state[0]

    _run_marginal(od, z0, n, config.dt, [key], record)
    return config.dt * np.arange(n + 1), z


def marginal_ensemble_values(
    od: OneDimWf, z0: float, t: float, dt: float, n_paths: int, seed: int, label: str = "wf1d"
) -> np.ndarray:
    """Values of n_paths independent 1-d paths at time t."""
    n = _n_steps(t, dt, "t")
    check_sizes(n, n_paths)
    return _run_marginal(od, z0, n, dt, [StreamKey(seed, label, i) for i in range(n_paths)])


def _first_exit(od, z0, a, b, n_steps, dt, n_paths, seed, label) -> tuple[np.ndarray, np.ndarray]:
    """Time and value of each path's first step at or beyond a or b (nan if none); exited paths retire."""
    check_sizes(n_steps, n_paths)
    tau = np.full(n_paths, np.nan)
    z_exit = np.full(n_paths, np.nan)
    ids = np.arange(n_paths)

    def exits(n, z):  # retires the paths that left (a, b) at step n
        nonlocal ids
        out = (z <= a) | (z >= b)
        if out.any():
            tau[ids[out]], z_exit[ids[out]] = n * dt, z[out]
            ids = ids[~out]
            return np.flatnonzero(~out)

    _run_marginal(od, z0, n_steps, dt, [StreamKey(seed, label, i) for i in range(n_paths)], exits)
    return tau, z_exit


def marginal_touch_flags(
    od: OneDimWf, z0: float, level: float, t_max: float, dt: float, n_paths: int, seed: int, label: str = "wf1d"
) -> np.ndarray:
    """Per-path flag: did the path enter [0, level] by time t_max."""
    tau, _ = _first_exit(od, z0, level, np.inf, _n_steps(t_max, dt, "t-max"), dt, n_paths, seed, label)
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
    label: str = "wf1d",
) -> tuple[np.ndarray, np.ndarray]:
    """First exit of (a, b): returns (exit times, hit-upper flags).

    Crossing is detected on the discrete path (first step at or beyond a
    level); paths still inside at t_cap get time nan.
    """
    if not a < z0 < b:
        raise ValidationError("z0", f"need a < z0 < b, got a={a}, z0={z0}, b={b}")
    tau, z_exit = _first_exit(od, z0, a, b, _n_steps(t_cap, dt, "t-cap"), dt, n_paths, seed, label)
    return tau, z_exit >= b
