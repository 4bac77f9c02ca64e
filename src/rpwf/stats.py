"""Statistical harness: chi-squared distance, KS tests, convergence exhibit.

The convergence experiment realizes the weak-convergence statement at desk
scale: urn predictive means at rescaled time t (beta near 1) are compared,
marginal by marginal, against Euler-Maruyama samples of the limiting
Wright-Fisher diffusion through two-sample Kolmogorov-Smirnov distances.
It needs at least two replicas (a KS distance and a moment z-score take a
sample spread), and its report keeps both ensembles at every checkpoint.

Both exhibits hand ``workers`` to the urn and Euler-Maruyama ensembles,
which split replicas over processes in ``rng.map_replicas``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .scaling import ScaledFamilyParams, family_member_for_start, step_index
from .urn import simulate_urn_ensemble
from .wright_fisher import SdeConfig, WfParams, mean_ode, simulate_wf_ensemble

__all__ = [
    "ChiSqReport",
    "KsReport",
    "ConvergenceConfig",
    "ConvergenceReport",
    "chi_squared_stat",
    "chi_squared_report",
    "empirical_mean",
    "ks_critical_value",
    "ks_one_sample",
    "ks_two_sample",
    "convergence_experiment",
    "stationary_urn_samples",
]

_KS_LEVELS = (0.01, 0.05)
_MAX_URN_STEPS = 20_000_000  # the most urn steps either exhibit runs; more are rejected before anything runs


@dataclass(frozen=True)
class ChiSqReport:
    N: int
    counts: tuple[int, ...]
    p: tuple[float, ...]
    statistic: float

    def as_dict(self) -> dict:
        return {"N": self.N, "counts": list(self.counts), "p": list(self.p), "statistic": self.statistic}


def chi_squared_stat(O, p, N: int) -> float:
    """chi^2 = N * sum((O_i/N - p_i)^2 / p_i) against the limit law p."""
    O = np.asarray(O, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValidationError("p", "expected probabilities must be strictly positive")
    if N <= 0:
        raise ValidationError("N", "sample size must be positive")
    if abs(O.sum() - N) > 1e-9:
        raise ValidationError("O", f"counts sum to {O.sum()}, expected N={N}")
    return float(N * np.sum((O / N - p) ** 2 / p))


def chi_squared_report(O, p) -> ChiSqReport:
    O = np.asarray(O)
    N = int(round(float(O.sum())))
    return ChiSqReport(
        N=N,
        counts=tuple(int(v) for v in O),
        p=tuple(float(v) for v in p),
        statistic=chi_squared_stat(O, p, N),
    )


def empirical_mean(draws) -> np.ndarray:
    """Running empirical mean of the one-hot draw sequence, one row per prefix.

    ``draws`` is a 1-d array of colors in 1..k, as in ``UrnTrajectory.draws``.
    """
    draws = np.asarray(draws)
    if draws.ndim != 1 or draws.size == 0:
        raise ValidationError("draws", "need a nonempty 1-d array of colors")
    onehot = np.zeros((draws.size, int(draws.max())))
    onehot[np.arange(draws.size), draws - 1] = 1.0
    return np.cumsum(onehot, axis=0) / np.arange(1, draws.size + 1)[:, None]


def ks_critical_value(n: int, alpha: float, m: int | None = None) -> float:
    """Asymptotic Kolmogorov critical value at level alpha.

    One-sample: c(alpha)/sqrt(n); two-sample (m given): c(alpha) *
    sqrt((n+m)/(n m)), with c(alpha) = sqrt(-ln(alpha/2)/2).
    """
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    if m is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + m) / (n * m))


@dataclass(frozen=True)
class KsReport:
    D: float
    n_samples: int
    m_samples: int | None
    critical: dict

    def passes(self, alpha: float) -> bool:
        return self.D < self.critical[alpha]

    def as_dict(self) -> dict:
        return {
            "D": self.D,
            "n_samples": self.n_samples,
            "m_samples": self.m_samples,
            "critical": {str(a): v for a, v in self.critical.items()},
        }


def ks_one_sample(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KsReport:
    """Sup distance between the empirical CDF and a reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValidationError("samples", "need a nonempty sample")
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n - F
    lo = F - np.arange(0, n) / n
    D = float(max(hi.max(), lo.max(), 0.0))
    return KsReport(D=D, n_samples=n, m_samples=None, critical={a: ks_critical_value(n, a) for a in _KS_LEVELS})


def ks_two_sample(s1, s2) -> KsReport:
    """Sup distance between two empirical CDFs."""
    x1 = np.sort(np.asarray(s1, dtype=float))
    x2 = np.sort(np.asarray(s2, dtype=float))
    if x1.size == 0 or x2.size == 0:
        raise ValidationError("samples", "need nonempty samples")
    allx = np.concatenate([x1, x2])
    F1 = np.searchsorted(x1, allx, side="right") / x1.size
    F2 = np.searchsorted(x2, allx, side="right") / x2.size
    D = float(np.abs(F1 - F2).max())
    return KsReport(
        D=D,
        n_samples=x1.size,
        m_samples=x2.size,
        critical={a: ks_critical_value(x1.size, a, x2.size) for a in _KS_LEVELS},
    )


@dataclass(frozen=True)
class ConvergenceConfig:
    """Inputs of the weak-convergence exhibit."""

    wf: WfParams
    betas: tuple[float, ...]
    times: tuple[float, ...]
    n_replicas: int
    x0: tuple[float, ...] | None = None
    dt: float = 1e-3
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-beta, per-checkpoint KS distances of every tested marginal."""

    betas: tuple[float, ...]
    times: tuple[float, ...]
    marginals: tuple[str, ...]
    # distances[i_beta][i_time][i_marginal]
    distances: tuple
    critical: dict
    moment_z: tuple
    n_replicas: int
    trend_ok: bool
    # both ensembles at every checkpoint, always kept (``as_dict`` leaves them out):
    # samples[(i_beta, i_time)] = (urn (M, k), wf (M, k))
    samples: dict = field(compare=False)

    def mean_distance(self, i_beta: int) -> float:
        return float(np.mean(np.asarray(self.distances)[i_beta]))

    def as_dict(self) -> dict:
        return {
            "betas": list(self.betas),
            "times": list(self.times),
            "marginals": list(self.marginals),
            "distances": np.asarray(self.distances).tolist(),
            "critical": {str(a): v for a, v in self.critical.items()},
            "moment_z": np.asarray(self.moment_z).tolist(),
            "n_replicas": self.n_replicas,
            "trend_ok": self.trend_ok,
        }


def _marginal_specs(k: int, seed: int) -> list[tuple[str, np.ndarray]]:
    """Singleton marginals plus one seed-derived bipartition for k > 2."""
    specs = []
    for i in range(k):
        sel = np.zeros(k)
        sel[i] = 1.0
        specs.append((f"X{i+1}", sel))
    if k > 2:
        rng = np.random.Generator(np.random.PCG64(seed))
        while True:
            mask = rng.random(k) < 0.5
            if 0 < mask.sum() < k:
                break
        sel = mask.astype(float)
        name = "J{" + ",".join(str(i + 1) for i in range(k) if mask[i]) + "}"
        specs.append((name, sel))
    return specs


def _check_urn_steps(field: str, beta: float, t: float) -> None:
    """Reject rescaled time t at beta if the urn needs more than ``_MAX_URN_STEPS`` steps to reach it."""
    steps = t / (1.0 - beta) ** 2
    if steps > _MAX_URN_STEPS:
        raise ValidationError(field, f"beta={beta} at rescaled time {t} needs {steps:.4g} urn steps, over {_MAX_URN_STEPS}")


def convergence_experiment(config: ConvergenceConfig) -> ConvergenceReport:
    """Two-sample KS distances between urn ensembles and the EM diffusion.

    For every beta, a balanced urn family member started at x0 runs to the
    largest checkpoint in rescaled time; for every checkpoint t, the
    replica values psi_{floor(t/(1-beta)^2)} are compared per marginal
    against an independent Euler-Maruyama ensemble at t.
    """
    wf = config.wf
    betas = tuple(sorted(config.betas))
    times = tuple(sorted(config.times))
    if not betas or not times:
        raise ValidationError("betas", "need at least one beta and one checkpoint time")
    if not config.n_replicas >= 2:
        raise ValidationError("replicas", f"KS distances and z-scores need >= 2 replicas, got {config.n_replicas}")
    t_max = times[-1]
    _check_urn_steps("times", betas[-1], t_max)
    x0 = np.array(config.x0, dtype=float) if config.x0 is not None else wf.p.copy()
    specs = _marginal_specs(wf.k, config.seed)
    wf_samples = simulate_wf_ensemble(
        wf,
        x0,
        t_max,
        SdeConfig(dt=config.dt),
        config.n_replicas,
        seed=config.seed,
        label="converge-wf",
        checkpoints=list(times),
        workers=config.workers,
    )
    distances = []
    moment_z = []
    samples = {}
    for i_beta, beta in enumerate(betas):
        fp = ScaledFamilyParams(alpha=wf.alpha, b=wf.b * wf.p, beta=beta)
        urn_params = family_member_for_start(fp, x0)
        idx = [step_index(beta, t) for t in times]
        psi = simulate_urn_ensemble(
            urn_params, max(idx), config.n_replicas, config.seed, "converge-urn", idx, config.workers
        )
        per_beta = []
        per_beta_z = []
        for j, t in enumerate(times):
            samples[(i_beta, j)] = (psi[j], wf_samples[j])
            per_t = []
            for _, sel in specs:
                urn_m = psi[j] @ sel
                wf_m = wf_samples[j] @ sel
                per_t.append(ks_two_sample(urn_m, wf_m).D)
            per_beta.append(per_t)
            mean_target = mean_ode(wf, x0, t)
            urn_mean = psi[j].mean(axis=0)
            stderr = psi[j].std(axis=0, ddof=1) / math.sqrt(psi[j].shape[0])
            per_beta_z.append(((urn_mean - mean_target) / np.where(stderr > 0, stderr, 1.0)).tolist())
        distances.append(per_beta)
        moment_z.append(per_beta_z)
    dist_arr = np.asarray(distances)
    trend_ok = bool(dist_arr[-1].mean() <= dist_arr[0].mean())
    crit = {a: ks_critical_value(config.n_replicas, a, config.n_replicas) for a in _KS_LEVELS}
    return ConvergenceReport(
        betas=betas,
        times=times,
        marginals=tuple(name for name, _ in specs),
        distances=tuple(dist_arr.tolist()),
        critical=crit,
        moment_z=tuple(np.asarray(moment_z).tolist()),
        n_replicas=config.n_replicas,
        trend_ok=trend_ok,
        samples=samples,
    )


def stationary_urn_samples(
    wf: WfParams, beta: float, t_long: float, n_replicas: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Long-run predictive-mean samples of the balanced urn at rescaled time t_long.

    Independent replicas, one sample each, for stationary goodness-of-fit
    against Dir(2 (b/alpha) p).
    """
    if not t_long >= 0:
        raise ValidationError("t-long", f"must be >= 0, got {t_long}")
    fp = ScaledFamilyParams(alpha=wf.alpha, b=wf.b * wf.p, beta=beta)
    params = family_member_for_start(fp, wf.p)
    _check_urn_steps("t-long", beta, t_long)
    n = step_index(beta, t_long)
    return simulate_urn_ensemble(params, n, n_replicas, seed, label="converge-urn", checkpoints=[n], workers=workers)[0]
