"""The five benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (this is the
set-up that ``setup_s`` times), runs one iteration of its timed body in
``run`` and checks an iteration's output in ``checks``.  Library entry
points are looked up on their modules at call time, so the tracer's
wrappers are seen when it is installed.

Work is computed from inputs and outputs only:

* ``converge``: replica-steps, M x (urn steps for every beta + EM steps)
* ``first_passage``: path-steps, sum of round(tau / dt) over the paths
* ``wf_k5``: path-steps, M x ceil(t / dt)
* ``spectral``: densities that evaluated successfully
* ``cli``: commands that exited with code 0
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import rpwf.boundary as B
import rpwf.quadrature as Q
import rpwf.scaling as S
import rpwf.spectral as SP
import rpwf.stats as ST
import rpwf.wright_fisher as W
from rpwf.polynomials import GammaWeights


@dataclass
class Outcome:
    """One iteration of a timed body."""

    value: object
    work: float
    ops: int
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds, one per successful call


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _timed_call(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


class Converge:
    """Criterion 8: urn ensembles at beta 0.5 and 0.99 against the EM diffusion, k=2."""

    unit = "replica-steps"
    KS_LEVEL = 1e-6  # false alarms per seed, so that no seed fails a correct program

    def __init__(self, seed: int, workdir: Path):
        wf = W.WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))
        self.config = ST.ConvergenceConfig(
            wf=wf, betas=(0.5, 0.99), times=(1.0,), n_replicas=2000, dt=1e-3, seed=seed, workers=1
        )
        t = max(self.config.times)
        steps = sum(S.step_index(b, t) for b in self.config.betas) + math.ceil(t / self.config.dt)
        self.work = self.config.n_replicas * steps

    def run(self) -> Outcome:
        rep, dt = _timed_call(ST.convergence_experiment, self.config)
        return Outcome(rep, self.work, ops=1, latencies=[dt])

    def digest(self, rep) -> str:
        return _digest(rep.distances, rep.moment_z)

    def checks(self, rep) -> dict:
        """KS distance at beta 0.99 below the level-1e-6 critical value and below the distance at beta 0.5.

        A check at the 1% level fails on about 1% of seeds for a correct
        program (seed 4 reads 1.03 times the 1% value); at 1e-6 the
        critical value is 1.65 times the 1% one, while the distance at
        beta 0.5 stays above 3 times it.
        """
        d_high, d_low = (max(rep.distances[rep.betas.index(b)][0]) for b in (0.99, 0.5))
        crit = ST.ks_critical_value(self.config.n_replicas, self.KS_LEVEL, self.config.n_replicas)
        return {
            f"ks_beta_0.99_below_{self.KS_LEVEL:g}_critical": d_high < crit,
            "ks_beta_0.99_below_beta_0.5": d_high < d_low,
        }


class FirstPassage:
    """Criterion 7, first set: exit of (0.2, 0.8) by the 1-d marginal, plus the analytic oracles."""

    unit = "path-steps"
    SE_LIMIT = 5.0  # |hit prob - Monte Carlo| in standard errors: about 6e-7 false alarms per seed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.od = W.OneDimWf(a0=0.3, a1=0.7)
        self.ip = B.IntervalProblem(od=self.od, a=0.2, b_pt=0.8)
        self.z0, self.dt, self.n_paths, self.t_cap = 0.5, 1e-4, 10_000, 100.0

    def run(self) -> Outcome:
        t0 = perf_counter()
        tau, hit = W.marginal_first_passage(
            self.od, self.z0, self.ip.a, self.ip.b_pt, dt=self.dt, n_paths=self.n_paths, seed=self.seed, t_cap=self.t_cap
        )
        u = B.hitting_prob(self.ip, self.z0)
        w = B.mean_exit_time(self.ip, self.z0)
        latency = perf_counter() - t0
        censored = np.isnan(tau)
        work = float(np.round(tau[~censored] / self.dt).sum()) + int(censored.sum()) * math.ceil(self.t_cap / self.dt)
        return Outcome((tau, hit, u, w), work, ops=1, latencies=[latency])

    def digest(self, value) -> str:
        tau, hit, u, w = value
        return _digest(tau, hit, [u, w])

    def checks(self, value) -> dict:
        tau, hit, u, _ = value
        u_mc = float(hit.mean())
        se = math.sqrt(max(u_mc * (1.0 - u_mc), 1e-12) / hit.size)
        return {
            "no_censored_passage": not np.isnan(tau).any(),
            f"hit_prob_within_{self.SE_LIMIT:g}_se": abs(u - u_mc) < self.SE_LIMIT * se,
        }


class WfK5:
    """k=5 Euler-Maruyama ensemble, uniform p, b/alpha=1 (a_z = 0.2: accessible boundaries)."""

    unit = "path-steps"
    MEAN_SE_LIMIT = 5.0  # per-component |mean - mean_ode| in standard errors: about 3e-6 false alarms per seed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.params = W.WfParams(b=1.0, alpha=1.0, p=np.full(5, 0.2))
        self.x0 = self.params.p.copy()
        self.t, self.config, self.n_paths = 2.0, W.SdeConfig(dt=1e-3), 2000
        self.work = self.n_paths * math.ceil(self.t / self.config.dt)

    def run(self) -> Outcome:
        out, dt = _timed_call(
            W.simulate_wf_ensemble, self.params, self.x0, self.t, self.config, self.n_paths, seed=self.seed
        )
        return Outcome(out[0], self.work, ops=1, latencies=[dt])

    def digest(self, X) -> str:
        return _digest(X)

    def checks(self, X) -> dict:
        on_simplex = bool((X >= 0.0).all() and np.abs(X.sum(axis=1) - 1.0).max() <= 1e-12)
        se = X.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
        z = np.abs(X.mean(axis=0) - W.mean_ode(self.params, self.x0, self.t)) / se
        return {"rows_on_simplex": on_simplex, f"mean_within_{self.MEAN_SE_LIMIT:g}_se": bool(z.max() < self.MEAN_SE_LIMIT)}


@dataclass
class _SpectralConfig:
    name: str
    params: W.WfParams
    max_degree: int | None
    level: int  # simplex_rule level: Gauss order per axis (k <= 3) or log2 of the QMC size


class Spectral:
    """Transition-density evaluations on simplex_rule nodes, four configurations.

    A configuration whose evaluator cannot be built (today the recessive
    one, k=2, b/alpha=0.4) is listed in ``unbuilt``; its calls and checks
    are not attempted, so they are neither operations nor failures.  The
    traced run counts them in ``spectral.failed``.  Once it builds, its
    calls and checks join the operations.
    """

    unit = "densities"
    MIN_CALLS = 1000  # successful calls per run, so that 10 lie beyond the 99th percentile
    TIMES = (0.5, 1.0, 2.0)
    MASS_TOL = 1e-4
    REV_TOL = 1e-8  # relative
    REV_PAIRS = 5

    def __init__(self, seed: int, workdir: Path):
        self.tracer = None
        uniform = lambda k: np.full(k, 1.0 / k)  # noqa: E731
        specs = [
            _SpectralConfig("k2", W.WfParams(b=1.0, alpha=1.0, p=uniform(2)), 30, 40),
            _SpectralConfig("k3", W.WfParams(b=1.0, alpha=1.0, p=uniform(3)), 10, 10),
            _SpectralConfig("k5", W.WfParams(b=2.0, alpha=1.0, p=uniform(5)), 6, 7),
            _SpectralConfig("recessive", W.WfParams(b=0.4, alpha=1.0, p=np.array([0.5, 0.5])), None, 40),
        ]
        rng = np.random.Generator(np.random.PCG64(seed))
        self.configs = []
        for spec in specs:
            k = spec.params.k
            gw = GammaWeights.from_wf(spec.params)
            pts, w = Q.simplex_rule(gw, spec.level)
            y0 = (0.5 / k + 0.5 * rng.dirichlet(np.ones(k)))[:-1]
            try:
                dens = SP.SpectralTransitionDensity(spec.params, spec.max_degree)
            except (ValueError, ArithmeticError):
                dens = None
            self.configs.append((spec, gw, pts, w, y0, dens))
        self.unbuilt = [spec.name for spec, *_, dens in self.configs if dens is None]
        self.rev_pairs = [
            [(0.5 / s.params.k + 0.5 * rng.dirichlet(np.ones(s.params.k)))[:-1] for _ in range(2 * self.REV_PAIRS)]
            for s, *_ in self.configs
        ]

    def run(self) -> Outcome:
        values, latencies, ops, failed = [], [], 0, 0
        for spec, gw, pts, w, y0, dens in self.configs:
            vals = np.full((len(self.TIMES), len(pts)), np.nan)
            if dens is None:
                if self.tracer is not None:
                    self.tracer.count("spectral.calls_without_build", vals.size)
                values.append(vals)
                continue
            ops += vals.size
            for i, t in enumerate(self.TIMES):
                for j, y in enumerate(pts):
                    t0 = perf_counter()
                    try:
                        v = dens.evaluate(y0, y, t).value
                    except (ValueError, ArithmeticError):
                        failed += 1
                        continue
                    latencies.append(perf_counter() - t0)
                    vals[i, j] = v
            values.append(vals)
        return Outcome(values, ops - failed, ops=ops, failed=failed, latencies=latencies)

    def digest(self, values) -> str:
        return _digest(*values)

    def checks(self, values) -> dict:
        """Mass 1 on the Gauss rules (k <= 3) and reversibility pi(x) p(x, y) = pi(y) p(y, x).

        Configurations in ``unbuilt`` are not checked.  A mass check whose
        densities did not all evaluate reports None (failed, not an
        incorrect output).
        """
        out = {}
        for (spec, gw, pts, w, y0, dens), vals, pairs in zip(self.configs, values, self.rev_pairs):
            if dens is None:
                continue
            if spec.params.k <= 3:
                stat = np.array([SP.dirichlet_density(gw, y) for y in pts])
                for i, t in enumerate(self.TIMES):
                    ok = None
                    if not np.isnan(vals[i]).any():
                        ok = abs(float(w @ (vals[i] / stat)) - 1.0) < self.MASS_TOL
                    out[f"{spec.name}_mass_t{t:g}"] = ok
            ok = True
            for a, b in zip(pairs[::2], pairs[1::2]):
                lhs = SP.dirichlet_density(gw, a) * dens.evaluate(a, b, 1.0).value
                rhs = SP.dirichlet_density(gw, b) * dens.evaluate(b, a, 1.0).value
                ok &= abs(lhs - rhs) <= self.REV_TOL * max(1.0, abs(lhs))
            out[f"{spec.name}_reversible"] = ok
        return out


class Cli:
    """The README commands, run in-process through rpwf.cli.main."""

    unit = "commands"

    def __init__(self, seed: int, workdir: Path):
        import rpwf.cli

        self.main = lambda argv: rpwf.cli.main(argv)  # looked up per call, so a wrapped main is seen
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        s, d = str(seed), self.dir
        common = ["--seed", s, "--workers", "1"]
        self.commands = [
            ["simulate-urn", "--alpha", "1", "--beta", "0.99", "--b", "1,1", "--steps", "10000", "--out", f"{d}/traj.csv"],
            ["simulate-wf", "--b", "1,1", "--t-max", "1", "--dt", "1e-3", "--replicas", "2000", "--out", f"{d}/ensemble.json"],
            ["simulate-wf", "--b", "1,1", "--t-max", "1", "--dt", "1e-3", "--replicas", "1", "--out", f"{d}/path.csv"],
            ["density", "--b", "1,1", "--y0", "0.3", "--y", "0.6", "--t", "1.0", "--max-degree", "30", "--out", f"{d}/density.json"],
            ["boundary", "--b", "0.9,0.1", "--alpha", "1", "--j", "1", "--out", f"{d}/boundary.json"],
            ["hit-prob", "--a0", "0.3", "--a1", "0.7", "--a", "0.2", "--b-pt", "0.8", "--z0", "0.5", "--out", f"{d}/hit.json"],
        ]
        self.commands = [c + common for c in self.commands]

    def run(self) -> Outcome:
        """One pass over the commands; its wall time is the call latency."""
        manifests, failed = [], 0
        t0 = perf_counter()
        for argv in self.commands:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.main(argv)
            except Exception:  # a crashing command fails; the other commands still run
                traceback.print_exc()
                code = None
            if code != 0:
                failed += 1
                manifests.append(None)
                continue
            manifests.append(json.loads(buf.getvalue()))
        latency = perf_counter() - t0
        n = len(self.commands)
        return Outcome(manifests, n - failed, ops=n, failed=failed, latencies=[latency])

    def digest(self, manifests) -> str:
        shas = [[o["sha256"] for o in m["outputs"]] if m else None for m in manifests]
        return hashlib.sha256(json.dumps(shas).encode()).hexdigest()

    def checks(self, manifests) -> dict:
        """Every output on disk matches the sha256 its manifest records."""
        out = {}
        for i, (argv, m) in enumerate(zip(self.commands, manifests)):
            ok = None
            if m is not None:
                ok = all(hashlib.sha256(Path(o["path"]).read_bytes()).hexdigest() == o["sha256"] for o in m["outputs"])
            out[f"{i}_{argv[0]}_sha256"] = ok
        return out


WORKLOADS = {
    "converge": Converge,
    "first_passage": FirstPassage,
    "wf_k5": WfK5,
    "spectral": Spectral,
    "cli": Cli,
}
