"""k-allele Wright-Fisher diffusion with mutation.

The limiting dynamics of the urn scaling family:

    dX_t = -(b/alpha) (X_t - p) dt + Sigma(X_t) dW_t,

where ``Sigma(x) Sigma(x)^T = diag(x) - x x^T`` and Sigma is the explicit
lower-triangular square root with zero column sums (so paths stay on the
affine hull of the simplex).  Discretization is Euler-Maruyama followed by
a clamp-and-renormalize projection back onto the simplex.

The 1-d marginal / grouped process ``Z`` solves

    dZ = (-a1 Z + a0 (1-Z)) dt + sqrt(max(0, Z(1-Z))) dW

with a0 = (b/alpha) * sum_{l in J} p_l and a1 = b/alpha - a0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .rng import StreamKey
from .simplex import check_simplex, project_to_simplex

__all__ = [
    "WfParams",
    "SdeConfig",
    "OneDimWf",
    "PathRecord",
    "sigma",
    "sigma_batch",
    "drift",
    "em_step",
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
        p = np.array(self.p, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
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
    """Discretization settings.

    ``clamp`` records that max(0, .) guards the square roots; the guards
    are always applied since the diffusion coefficient is undefined
    without them, so False is rejected rather than silently honored.
    """

    dt: float = 1e-3
    scheme: str = "euler_maruyama"
    clamp: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt", f"must be > 0, got {self.dt}")
        if self.scheme != "euler_maruyama":
            raise ValidationError("scheme", f"unknown scheme {self.scheme!r}")
        if not self.clamp:
            raise ValidationError("clamp", "the square-root guard cannot be disabled")


@dataclass(frozen=True)
class OneDimWf:
    """Coefficients of the 1-d marginal SDE; a_z classifies the boundary z."""

    a0: float
    a1: float

    def __post_init__(self):
        if self.a0 < 0 or self.a1 < 0:
            raise ValidationError("a0", "marginal coefficients must be nonnegative")


@dataclass(frozen=True)
class PathRecord:
    """Time grid, simplex-valued path and the stream that produced it."""

    t: np.ndarray
    X: np.ndarray
    seed: StreamKey

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        X = np.array(self.X, dtype=float)
        t.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "X", X)


def sigma(x) -> np.ndarray:
    """Lower-triangular square root of diag(x) - x x^T.

    Rows and columns touching a zero component are exactly zero; column
    sums vanish identically.
    """
    x = check_simplex(x, "x")
    return sigma_batch(x[None, :])[0]


def sigma_batch(X: np.ndarray) -> np.ndarray:
    """Vectorized ``sigma`` for an (M, k) batch of simplex points."""
    X = np.asarray(X, dtype=float)
    M, k = X.shape
    S = np.cumsum(X[:, ::-1], axis=1)[:, ::-1]  # S[:, j] = sum_{l >= j} x_l
    S_next = np.zeros_like(S)
    S_next[:, :-1] = S[:, 1:]
    safe_S = np.where(S > 0, S, 1.0)
    diag = np.sqrt(np.maximum(X * S_next / safe_S, 0.0))
    denom = S * S_next
    safe_denom = np.where(denom > 0, denom, 1.0)
    # col[:, j] = sqrt(x_j / (S_j S_{j+1})); zero whenever the suffix runs out
    col = np.where(denom > 0, np.sqrt(np.maximum(X, 0.0) / safe_denom), 0.0)
    out = np.zeros((M, k, k))
    li, lj = np.tril_indices(k, k=-1)
    out[:, li, lj] = -X[:, li] * col[:, lj]
    idx = np.arange(k)
    out[:, idx, idx] = diag
    return out


def drift(x, params: WfParams) -> np.ndarray:
    """Mean-reverting drift -(b/alpha)(x - p); components sum to zero."""
    x = np.asarray(x, dtype=float)
    return -params.rate * (x - params.p)


def em_update(x, z, params: WfParams, dt: float) -> np.ndarray:
    """One deterministic Euler-Maruyama update given the normal draw z.

    Works on a single point (k,) with z (k,), or a batch (M, k) with
    z (M, k).  The result is projected exactly onto the simplex.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    zb = np.atleast_2d(z)
    noise = math.sqrt(dt) * np.einsum("mij,mj->mi", sigma_batch(xb), zb)
    out = project_to_simplex(xb + drift(xb, params) * dt + noise)
    return out[0] if single else out


def em_step(x, params: WfParams, config: SdeConfig, rng: np.random.Generator) -> np.ndarray:
    """Single stochastic Euler-Maruyama step from x."""
    x = check_simplex(x, "x")
    return em_update(x, rng.standard_normal(params.k), params, config.dt)


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
    rng = key.generator()
    n = int(math.ceil(t_max / config.dt)) if t_max > 0 else 0
    X = np.empty((n + 1, params.k))
    X[0] = x0
    x = x0
    for i in range(n):
        x = em_update(x, rng.standard_normal(params.k), params, config.dt)
        X[i + 1] = x
    t = config.dt * np.arange(n + 1)
    return PathRecord(t=t, X=X, seed=key)


def simulate_wf_ensemble(
    params: WfParams,
    x0,
    t_max: float,
    config: SdeConfig,
    n_paths: int,
    seed: int,
    label: str = "wf",
    checkpoints: Sequence[float] | None = None,
    replica_offset: int = 0,
) -> np.ndarray:
    """Ensemble values at checkpoint times; path i uses stream (seed, label, i).

    Returns shape ``(len(checkpoints), n_paths, k)``; default checkpoint is
    ``t_max``.  Checkpoint times snap to the step grid by rounding.
    """
    x0 = check_simplex(x0, "x0")
    if checkpoints is None:
        checkpoints = [t_max]
    n = int(math.ceil(t_max / config.dt)) if t_max > 0 else 0
    cp_idx = [min(int(round(t / config.dt)), n) for t in checkpoints]
    cp = {}
    for j, i in enumerate(cp_idx):
        cp.setdefault(i, []).append(j)
    gens = [StreamKey(seed, label, replica_offset + i).generator() for i in range(n_paths)]
    X = np.tile(x0, (n_paths, 1))
    out = np.empty((len(checkpoints), n_paths, params.k))
    for j in cp.get(0, []):
        out[j] = X
    chunk = 512
    i = 0
    while i < n:
        m = min(chunk, n - i)
        Z = np.stack([g.standard_normal((m, params.k)) for g in gens], axis=0)
        for s in range(m):
            X = em_update(X, Z[:, s, :], params, config.dt)
            i += 1
            for j in cp.get(i, []):
                out[j] = X
    return out


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


def simulate_marginal_1d(
    od: OneDimWf,
    z0: float,
    t_max: float,
    config: SdeConfig = SdeConfig(),
    seed: StreamKey | int = 0,
    label: str = "wf1d",
) -> tuple[np.ndarray, np.ndarray]:
    """Single 1-d path clamped to [0, 1]; returns (t, z)."""
    if not 0.0 <= z0 <= 1.0:
        raise ValidationError("z0", f"must lie in [0, 1], got {z0}")
    key = seed if isinstance(seed, StreamKey) else StreamKey(int(seed), label)
    rng = key.generator()
    n = int(math.ceil(t_max / config.dt)) if t_max > 0 else 0
    z = np.empty(n + 1)
    z[0] = z0
    cur = np.array([z0])
    for i in range(n):
        cur = _marginal_em(cur, rng.standard_normal(1), od, config.dt)
        z[i + 1] = cur[0]
    return config.dt * np.arange(n + 1), z


def _marginal_batch(od, z0, n_steps, dt, n_paths, seed, label, replica_offset, chunk=4096):
    gens = [StreamKey(seed, label, replica_offset + i).generator() for i in range(n_paths)]
    z = np.full(n_paths, float(z0))
    done = 0
    while done < n_steps:
        m = min(chunk, n_steps - done)
        Z = np.stack([g.standard_normal(m) for g in gens], axis=0)
        for s in range(m):
            z = _marginal_em(z, Z[:, s], od, dt)
        done += m
        yield z, done


def marginal_ensemble_values(
    od: OneDimWf, z0: float, t: float, dt: float, n_paths: int, seed: int, label: str = "wf1d", replica_offset: int = 0
) -> np.ndarray:
    """Values of n_paths independent 1-d paths at time t."""
    n = int(math.ceil(t / dt)) if t > 0 else 0
    z = np.full(n_paths, float(z0))
    for z, _ in _marginal_batch(od, z0, n, dt, n_paths, seed, label, replica_offset):
        continue
    return z


def marginal_touch_flags(
    od: OneDimWf, z0: float, level: float, t_max: float, dt: float, n_paths: int, seed: int, label: str = "wf1d"
) -> np.ndarray:
    """Per-path flag: did the path enter [0, level] by time t_max."""
    n = int(math.ceil(t_max / dt))
    gens = [StreamKey(seed, label, i).generator() for i in range(n_paths)]
    z = np.full(n_paths, float(z0))
    touched = z <= level
    done = 0
    chunk = 4096
    while done < n:
        m = min(chunk, n - done)
        Z = np.stack([g.standard_normal(m) for g in gens], axis=0)
        for s in range(m):
            z = _marginal_em(z, Z[:, s], od, dt)
            touched |= z <= level
        done += m
    return touched


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
    n = int(math.ceil(t_cap / dt))
    gens = [StreamKey(seed, label, i).generator() for i in range(n_paths)]
    z = np.full(n_paths, float(z0))
    tau = np.full(n_paths, np.nan)
    hit_b = np.zeros(n_paths, dtype=bool)
    active = np.ones(n_paths, dtype=bool)
    done = 0
    chunk = 2048
    while done < n and active.any():
        m = min(chunk, n - done)
        act_idx = np.nonzero(active)[0]
        Z = np.stack([gens[i].standard_normal(m) for i in act_idx], axis=0)
        za = z[act_idx]
        alive = np.ones(act_idx.size, dtype=bool)
        for s in range(m):
            za[alive] = _marginal_em(za[alive], Z[alive, s], od, dt)
            newly = alive & ((za <= a) | (za >= b))
            if newly.any():
                rows = act_idx[newly]
                tau[rows] = (done + s + 1) * dt
                hit_b[rows] = za[newly] >= b
                alive &= ~newly
        z[act_idx] = za
        active[act_idx] = alive
        done += m
    return tau, hit_b
