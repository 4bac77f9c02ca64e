"""Span tracing installed from outside the program.

``Tracer.install`` replaces public rpwf functions with timing wrappers at
the names their callers look them up (``from .x import f`` binds a copy,
so a function is wrapped once per importing module).  Nothing is patched
unless ``install`` is called, so untraced runs execute the program as is.

Each span records (id, parent id, name, start, end, phase, failed) and is
kept in memory until ``write_spans``.  Time spent computing counters inside
a wrapper is recorded as a ``trace.counters`` child span, so it is excluded
from the self time of the span that encloses it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the variates drawn.

    The draws are attributed to the phase and layer that created the stream.
    """

    def __init__(self, gen, key: tuple[str, str]):
        self._gen = gen
        self.key = key
        self.draws = 0

    def random(self, size=None, *args, **kwargs):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._gen.random(size, *args, **kwargs)

    def standard_normal(self, size=None, *args, **kwargs):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._gen.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, phase, failed)
        self.counters: Counter = Counter()  # (phase, name) -> value
        self.phase = "setup"
        self._stack: list[tuple[int, str]] = []  # open (span id, name)
        self._generators: list[_CountingGenerator] = []

    # ------------------------------------------------------------ recording

    def _parent(self) -> int:
        return self._stack[-1][0] if self._stack else -1

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append((len(self.spans), self._parent(), name, start, end, self.phase, False))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.phase, name)] += value

    def counting_generator(self, gen) -> _CountingGenerator:
        layer = self._stack[-1][1].split(".", 1)[0] if self._stack else "bench"
        proxy = _CountingGenerator(gen, (self.phase, f"{layer}.draws"))
        self._generators.append(proxy)
        return proxy

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``before(tracer, bound_args)`` and ``after(tracer, bound_args, result)``
        record counters from the call's inputs and outputs.
        """
        fn = getattr(owner, attr)
        params = inspect.signature(fn).parameters.values()
        names = [p.name for p in params]
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        tracer = self

        def bind(args, kwargs) -> dict:  # inspect's Signature.bind costs ~10x more per call
            arguments = dict(defaults)
            arguments.update(zip(names, args))
            arguments.update(kwargs)
            return arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                c0 = perf_counter()
                before(tracer, bind(args, kwargs))
                tracer.span("trace.counters", c0, perf_counter())
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id so children can name their parent
            tracer._stack.append((sid, name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, tracer._parent(), name, t0, t1, tracer.phase, True)
                raise
            t1 = perf_counter()
            tracer._stack.pop()
            tracer.spans[sid] = (sid, tracer._parent(), name, t0, t1, tracer.phase, False)
            if after is not None:
                c0 = perf_counter()
                after(tracer, bind(args, kwargs), out)
                tracer.span("trace.counters", c0, perf_counter())
            return out

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every traced entry point of rpwf."""
        import rpwf.boundary
        import rpwf.cli
        import rpwf.io
        import rpwf.quadrature
        import rpwf.rng
        import rpwf.spectral
        import rpwf.stats
        import rpwf.urn
        import rpwf.wright_fisher

        urn, wf, st, cli = rpwf.urn, rpwf.wright_fisher, rpwf.stats, rpwf.cli
        spec, bnd, rio = rpwf.spectral, rpwf.boundary, rpwf.io

        self.wrap(rpwf.rng.StreamKey, "generator", "rng.stream_generator")
        generator = rpwf.rng.StreamKey.generator

        @functools.wraps(generator)
        def counting_generator(key):  # outside the rng span, so draws go to the caller's layer
            return self.counting_generator(generator(key))

        rpwf.rng.StreamKey.generator = counting_generator

        for owner in (urn, st):
            self.wrap(owner, "simulate_urn_ensemble", "urn.simulate_urn_ensemble", after=_urn_ensemble_work)
        for owner in (urn, cli):
            self.wrap(owner, "simulate_urn", "urn.simulate_urn", after=_urn_path_work)

        for owner in (wf, st, cli):
            self.wrap(owner, "simulate_wf_ensemble", "wright_fisher.simulate_wf_ensemble", after=_wf_ensemble_work)
        for owner in (wf, cli):
            self.wrap(owner, "simulate_wf", "wright_fisher.simulate_wf", after=_wf_path_work)
        self.wrap(wf, "em_update", "wright_fisher.em_update")
        self.wrap(wf, "sigma_batch", "wright_fisher.sigma_batch")
        self.wrap(wf, "marginal_first_passage", "wright_fisher.marginal_first_passage", after=_first_passage_work)
        self.wrap(wf, "project_to_simplex", "simplex.project_to_simplex", before=_projection_rows)

        cls = spec.SpectralTransitionDensity
        self.wrap(cls, "__init__", "spectral.build")
        self.wrap(cls, "evaluate", "spectral.evaluate", after=_density_warning)
        self.wrap(spec, "dirichlet_density", "spectral.dirichlet_density")
        self.wrap(spec, "jacobi_product_norm_sq_log", "polynomials.norm")
        self.wrap(cli, "transition_density", "spectral.transition_density")
        self.wrap(rpwf.quadrature, "simplex_rule", "quadrature.simplex_rule")

        for attr in ("hitting_prob", "mean_exit_time", "scale_increment"):
            self.wrap(bnd, attr, f"boundary.{attr}")
        for attr in ("hitting_prob", "mean_exit_time", "classify_boundary", "group_to_1d", "is_recessive", "dominant_colors"):
            self.wrap(cli, attr, f"boundary.{attr}")

        self.wrap(st, "convergence_experiment", "stats.convergence_experiment")
        self.wrap(st, "ks_two_sample", "stats.ks_two_sample")

        self.wrap(rio, "write_bytes", "io.write_bytes", after=_bytes_written)
        for attr in ("urn_trajectory_csv", "path_csv", "ensemble_summary_json", "canonical_json", "build_manifest"):
            self.wrap(rio, attr, f"io.{attr}")
        self.wrap(cli, "main", "cli.main")

    # ------------------------------------------------------------ reporting

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "phase", "failed")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    def layer_metrics(self, body_iterations: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one set-up plus one iteration of the timed body.

        Spans and counters of the ``setup`` phase count once; those of the
        ``body`` phase are divided by the number of traced iterations.  The
        ``checks`` phase is left out.
        """
        weight = {"setup": 1.0, "body": 1.0 / max(body_iterations, 1)}
        children = defaultdict(float)
        for sid, parent, name, t0, t1, phase, failed in self.spans:
            if parent >= 0:
                children[parent] += t1 - t0
        names = {s[0]: s[2] for s in self.spans}
        calls, busy, incl, failures, entries = Counter(), Counter(), Counter(), Counter(), Counter()
        eval_ms = []
        for sid, parent, name, t0, t1, phase, failed in self.spans:
            w = weight.get(phase)
            if w is None:
                continue
            if name == "spectral.evaluate" and phase == "body" and not failed:
                eval_ms.append(1e3 * (t1 - t0))
            calls[name] += w
            incl[name] += w * (t1 - t0)
            busy[name] += w * (t1 - t0 - children[sid])
            failures[name] += w * failed
            layer = name.split(".", 1)[0]
            if parent < 0 or names[parent].split(".", 1)[0] != layer:
                entries[layer] += w
        counters = self.counters.copy()
        for g in self._generators:
            counters[g.key] += g.draws
        cnt = Counter()
        for (phase, name), value in counters.items():
            if phase in weight:
                cnt[name] += weight[phase] * value

        def layer_busy(layer, exclude=()):
            return sum(v for n, v in busy.items() if n.split(".", 1)[0] == layer and n not in exclude)

        def ratio(num, den):  # 0 where the layer did not run
            return num / den if den > 0 else 0.0

        eval_p50, eval_p99 = np.percentile(eval_ms, [50, 99]) if eval_ms else (0.0, 0.0)
        ensemble, path = "wright_fisher.simulate_wf_ensemble", "wright_fisher.simulate_wf"
        fp = "wright_fisher.marginal_first_passage"
        return {
            "rng.streams": (calls["rng.stream_generator"], "count"),
            "rng.busy_s": (layer_busy("rng"), "s"),
            "urn.ensemble_busy_s": (busy["urn.simulate_urn_ensemble"], "s"),
            "urn.ensemble_replica_steps": (cnt["urn.ensemble_replica_steps"], "count"),
            "urn.ensemble_replica_steps_per_s": (
                ratio(cnt["urn.ensemble_replica_steps"], incl["urn.simulate_urn_ensemble"]),
                "1/s",
            ),
            "urn.path_busy_s": (busy["urn.simulate_urn"], "s"),
            "urn.path_steps_per_s": (ratio(cnt["urn.path_steps"], incl["urn.simulate_urn"]), "1/s"),
            "wright_fisher.em_calls": (calls["wright_fisher.em_update"], "count"),
            "wright_fisher.em_busy_s": (busy["wright_fisher.em_update"], "s"),
            "wright_fisher.sigma_busy_s": (busy["wright_fisher.sigma_batch"], "s"),
            "wright_fisher.ensemble_self_s": (busy[ensemble], "s"),
            "wright_fisher.ensemble_path_steps_per_s": (ratio(cnt["wright_fisher.ensemble_path_steps"], incl[ensemble]), "1/s"),
            "wright_fisher.path_steps_per_s": (ratio(cnt["wright_fisher.path_steps"], incl[path]), "1/s"),
            "wright_fisher.fp_busy_s": (busy[fp], "s"),
            "wright_fisher.fp_path_steps": (cnt["wright_fisher.fp_path_steps"], "count"),
            "wright_fisher.fp_path_steps_per_s": (ratio(cnt["wright_fisher.fp_path_steps"], incl[fp]), "1/s"),
            "wright_fisher.fp_censored": (cnt["wright_fisher.fp_censored"], "count"),
            "wright_fisher.noise_bytes": (8.0 * cnt["wright_fisher.draws"], "B-computed"),
            "simplex.project_busy_s": (busy["simplex.project_to_simplex"], "s"),
            "simplex.project_rows": (cnt["simplex.project_rows"], "count"),
            "simplex.clamp_frac": (ratio(cnt["simplex.clamped_rows"], cnt["simplex.project_rows"]), "ratio"),
            "spectral.builds": (calls["spectral.build"], "count"),
            "spectral.build_busy_s": (busy["spectral.build"], "s"),
            "spectral.evals": (calls["spectral.evaluate"], "count"),
            "spectral.eval_busy_s": (busy["spectral.evaluate"], "s"),
            "spectral.dirichlet_busy_s": (busy["spectral.dirichlet_density"], "s"),
            "spectral.eval_p50_ms": (float(eval_p50), "ms"),
            "spectral.eval_p99_ms": (float(eval_p99), "ms"),
            "spectral.tail_warning_frac": (
                ratio(cnt["spectral.tail_warnings"], calls["spectral.evaluate"] - failures["spectral.evaluate"]),
                "ratio",
            ),
            "spectral.failed": (
                sum(v for n, v in failures.items() if n.startswith("spectral.")) + cnt["spectral.calls_without_build"],
                "count",
            ),
            "polynomials.norm_calls": (calls["polynomials.norm"], "count"),
            "polynomials.norm_busy_s": (busy["polynomials.norm"], "s"),
            "quadrature.rule_busy_s": (busy["quadrature.simplex_rule"], "s"),
            "boundary.calls": (entries["boundary"], "count"),
            "boundary.busy_s": (layer_busy("boundary"), "s"),
            "boundary.scale_increment_calls": (calls["boundary.scale_increment"], "count"),
            "stats.ks_calls": (calls["stats.ks_two_sample"], "count"),
            "stats.ks_busy_s": (busy["stats.ks_two_sample"], "s"),
            "stats.self_s": (layer_busy("stats", exclude=("stats.ks_two_sample",)), "s"),
            "io.bytes_written": (cnt["io.bytes_written"], "B"),
            "io.busy_s": (layer_busy("io"), "s"),
            "cli.commands": (calls["cli.main"], "count"),
            "cli.self_s": (layer_busy("cli"), "s"),
        }


# ------------------------------------------------------------------ counters
# Work is computed from each call's arguments and results only.


def _steps(t_max: float, dt: float) -> int:
    return int(math.ceil(t_max / dt)) if t_max > 0 else 0


def _urn_ensemble_work(tr, a, out):
    tr.count("urn.ensemble_replica_steps", a["n_replicas"] * a["n_steps"])


def _urn_path_work(tr, a, out):
    tr.count("urn.path_steps", out.n_steps)


def _wf_ensemble_work(tr, a, out):
    tr.count("wright_fisher.ensemble_path_steps", a["n_paths"] * _steps(a["t_max"], a["config"].dt))


def _wf_path_work(tr, a, out):
    tr.count("wright_fisher.path_steps", out.X.shape[0] - 1)


def _first_passage_work(tr, a, out):
    tau, _ = out
    censored = np.isnan(tau)
    dt = a["dt"]
    tr.count("wright_fisher.fp_censored", int(censored.sum()))
    steps = np.round(tau[~censored] / dt).sum() + censored.sum() * _steps(a["t_cap"], dt)
    tr.count("wright_fisher.fp_path_steps", float(steps))


def _projection_rows(tr, a):
    v = np.asarray(a["v"])
    tr.count("simplex.project_rows", 1 if v.ndim == 1 else v.shape[0])
    if v.min() < 0.0:  # clamping is rare; skip the per-row pass otherwise
        tr.count("simplex.clamped_rows", 1 if v.ndim == 1 else int((v < 0.0).any(axis=-1).sum()))


def _density_warning(tr, a, out):
    tr.count("spectral.tail_warnings", int(out.tail_warning))


def _bytes_written(tr, a, out):
    tr.count("io.bytes_written", out["bytes"])
