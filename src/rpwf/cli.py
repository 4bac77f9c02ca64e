"""Command-line front end.

One binary, one subcommand per task.  Parameter precedence is CLI flags >
config file > built-in defaults; ``RPWF_SEED`` overrides the default seed
only when neither a flag nor a config entry supplies one.  Every run
prints a manifest (resolved parameters, seed, sha256 of each output) and
writes it next to the primary output, so a run can be reproduced
bit-exactly from the manifest alone.  The worker count is left out of it:
no output depends on it.

Exit codes: 0 success, 2 parameter validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import io as rio
from .boundary import (
    IntervalProblem,
    _group_mass,
    classify_boundary,
    dominant_colors,
    group_to_1d,
    hitting_prob,
    is_recessive,
    mean_exit_time,
    stationary_beta_cdf,
)
from .errors import ValidationError
from .rng import StreamKey
from .simplex import SIMPLEX_ATOL, check_simplex
from .spectral import transition_density
from .stats import ConvergenceConfig, convergence_experiment, ks_one_sample, stationary_urn_samples
from .urn import UrnParams, simulate_urn
from .wright_fisher import OneDimWf, SdeConfig, WfParams, simulate_wf, simulate_wf_ensemble

DEFAULT_SEED = 0
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _floats(s: str) -> list[float]:
    return [float(v) for v in str(s).split(",") if v.strip() != ""]


def _ints(s: str) -> list[int]:
    return [int(v) for v in str(s).split(",") if v.strip() != ""]


def _workers(s: str) -> int:
    workers = int(s)
    if workers < 1:
        raise ValidationError("workers", f"must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class Opt:
    name: str  # flag name without leading dashes, hyphenated
    conv: Callable
    default: object
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON = [
    Opt("seed", int, DEFAULT_SEED, "master seed (env RPWF_SEED when absent)"),
    Opt("config", str, None, "flat key = value config file"),
    Opt("out", str, None, "output path (default derived from the command)"),
    Opt("format", str, "csv", "csv or json"),
    Opt("workers", _workers, None, "processes for converge, stationary-test, simulate-wf --replicas (default: rpwf.rng's)"),
]


_WF = [  # the diffusion's parameters, read by _wf_params
    Opt("alpha", float, 1.0),
    Opt("b", _floats, [1.0, 1.0], "ball vector, or a single total used with --p"),
    Opt("p", _floats, None, "mutation kernel (default b/|b|)"),
]


def _load_config(path: str) -> dict:
    """Flat ``key = value`` file; a TOML-compatible subset."""
    data: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError("config", f"cannot read {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError("config", f"expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("_", "-").lower()
        val = val.strip()
        if len(val) >= 2 and val[0] == val[-1] and val[0] in "\"'":
            val = val[1:-1]
        data[key] = val
    return data


def _resolve(opts: list[Opt], ns: argparse.Namespace) -> dict:
    """Apply precedence CLI > config > defaults, converting every value once.

    ``RPWF_SEED`` ranks between the config file and the seed's default,
    ``DEFAULT_SEED``.  An option with no value at any level resolves to None.
    """
    cli = {k: v for k, v in vars(ns).items() if v is not None and k not in ("command",)}
    cfg = _load_config(cli["config"]) if cli.get("config") else {}
    resolved: dict[str, object] = {}
    raw: dict[str, str] = {}
    for opt in opts:
        if opt.dest in cli:
            value = cli[opt.dest]
        elif opt.name in cfg:
            value = cfg[opt.name]
        elif opt.name == "seed" and os.environ.get("RPWF_SEED"):
            value = os.environ["RPWF_SEED"]
        else:
            value = opt.default
        if value is None:
            resolved[opt.dest] = None
            continue
        if opt.name != "workers":  # no output depends on it, so manifests agree across machines
            raw[opt.name] = ",".join(str(v) for v in value) if isinstance(value, list) else str(value)
        try:
            resolved[opt.dest] = opt.conv(value) if not isinstance(value, list) else value
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(opt.name, f"bad value {value!r}") from exc
    if resolved.get("format") not in (None, "csv", "json"):
        raise ValidationError("format", f"expected csv or json, got {resolved['format']!r}")
    resolved["_raw"] = raw
    return resolved


def _wf_params(r: dict) -> WfParams:
    b_vec = np.asarray(r["b"], dtype=float)
    if not np.all((b_vec > 0) & (b_vec < math.inf)):  # positive form, so that a NaN fails
        raise ValidationError("b", f"entries must be finite and > 0, got {r['b']}")
    if b_vec.size == 1:
        if r.get("p") is None:
            raise ValidationError("p", "needed when --b is a single total")
        p = np.asarray(r["p"], dtype=float)
        return WfParams(b=float(b_vec[0]), alpha=r["alpha"], p=p)
    with np.errstate(over="ignore"):  # a total past the float range is inf, which WfParams rejects
        total = float(b_vec.sum())
    if r.get("p") is None:
        p = b_vec / total
    elif len(r["p"]) == b_vec.size:
        p = np.asarray(r["p"], dtype=float)
    else:
        raise ValidationError("p", f"expected {b_vec.size} entries, one per entry of --b")
    return WfParams(b=total, alpha=r["alpha"], p=p)


def _reduced_point(vals: list[float], k: int, name: str) -> np.ndarray:
    v = np.asarray(vals, dtype=float)
    if v.size == k:
        head = check_simplex(v, name)[:-1]
        # past a last component of -SIMPLEX_ATOL the head may sum to 1 + 2 SIMPLEX_ATOL: scaled back onto the face
        total = sum(head.tolist())
        return head if total <= 1.0 + SIMPLEX_ATOL else head / total
    if v.size == k - 1:
        return v
    raise ValidationError(name, f"expected {k} (full) or {k - 1} (reduced) coordinates")


# ---------------------------------------------------------------- commands


def _write(r: dict, default: str, data: bytes) -> list[dict]:
    """Write the primary output to --out, else to ``default``."""
    return [rio.write_bytes(r.get("out") or default, data)]


def _run_simulate_urn(r: dict) -> list[dict]:
    params = UrnParams(
        alpha=r["alpha"],
        beta=r["beta"],
        b=np.asarray(r["b"], dtype=float),
        B0=np.asarray(r["b0"], dtype=float) if r.get("b0") is not None else np.asarray(r["b"], dtype=float),
    )
    traj = simulate_urn(params, r["steps"], StreamKey(r["seed"], "cli-urn"))
    data = rio.urn_trajectory_csv(traj) if r["format"] == "csv" else rio.urn_trajectory_json(traj)
    return _write(r, f"urn-trajectory.{r['format']}", data)


def _run_simulate_wf(r: dict) -> list[dict]:
    params = _wf_params(r)
    x0 = np.asarray(r["x0"], dtype=float) if r.get("x0") is not None else params.p.copy()
    cfg = SdeConfig(dt=r["dt"])
    if r["replicas"] == 1:
        path = simulate_wf(params, x0, r["t_max"], cfg, StreamKey(r["seed"], "cli-wf"))
        data = rio.path_csv(path) if r["format"] == "csv" else rio.path_json(path)
        return _write(r, f"wf-path.{r['format']}", data)
    values = simulate_wf_ensemble(
        params, x0, r["t_max"], cfg, r["replicas"], r["seed"], "cli-wf", [r["t_max"]], r["workers"]
    )[0]
    data = rio.ensemble_summary_json(r["t_max"], values, {"seed": r["seed"], "label": "cli-wf"})
    return _write(r, "wf-ensemble.json", data)


def _run_density(r: dict) -> list[dict]:
    params = _wf_params(r)
    y0 = _reduced_point(r["y0"], params.k, "y0")
    y = _reduced_point(r["y"], params.k, "y")
    try:
        result = transition_density(y0, y, r["t"], params, r.get("max_degree"))
    except ValidationError as exc:
        if exc.field not in ("k", "gamma"):
            raise
        # k and gamma = 2 (b/alpha) p - 1 come from the mutation kernel, --p or else --b
        reason = exc.reason if exc.field == "k" else f"gamma = 2 (b/alpha) p - 1: {exc.reason}"
        raise ValidationError("p" if r.get("p") is not None else "b", reason) from exc
    return _write(r, "density.json", rio.canonical_json(result.as_dict()))


def _run_boundary(r: dict) -> list[dict]:
    params = _wf_params(r)
    J = r["j"]
    od = group_to_1d(params, J)
    report = {
        "j": [int(c) for c in J],
        "p_group": _group_mass(params, J),
        "a0": od.a0,
        "a1": od.a1,
        "boundary_at_0": classify_boundary(od.a0).value,
        "boundary_at_1": classify_boundary(od.a1).value,
        "recessive": is_recessive(params, J),
        "dominant_colors": dominant_colors(params),
    }
    return _write(r, "boundary.json", rio.canonical_json(report))


def _run_hit_prob(r: dict) -> list[dict]:
    od = OneDimWf(a0=r["a0"], a1=r["a1"])
    ip = IntervalProblem(od=od, a=r["a"], b_pt=r["b_pt"])
    report = {
        "a0": od.a0,
        "a1": od.a1,
        "a": ip.a,
        "b": ip.b_pt,
        "z0": r["z0"],
        "u": hitting_prob(ip, r["z0"]),
        "mean_exit_time": mean_exit_time(ip, r["z0"]),
    }
    return _write(r, "hit-prob.json", rio.canonical_json(report))


def _run_converge(r: dict) -> list[dict]:
    params = _wf_params(r)
    config = ConvergenceConfig(
        wf=params,
        betas=tuple(r["betas"]),
        times=tuple(r["times"]),
        n_replicas=r["replicas"],
        x0=tuple(r["x0"]) if r.get("x0") is not None else None,
        dt=r["dt"],
        seed=r["seed"],
        workers=r["workers"],
    )
    report = convergence_experiment(config)
    out = r.get("out") or "converge.json"
    outputs = [rio.write_bytes(out, rio.canonical_json(report.as_dict()))]
    stem = Path(out)
    for (i_beta, i_time), (urn_vals, wf_vals) in sorted(report.samples.items()):
        name = stem.with_suffix("").as_posix() + f".beta{report.betas[i_beta]}_t{report.times[i_time]}.csv"
        outputs.append(rio.write_bytes(name, rio.samples_csv(urn_vals, wf_vals)))
    return outputs


def _run_stationary_test(r: dict) -> list[dict]:
    params = _wf_params(r)
    samples = stationary_urn_samples(params, r["beta"], r["t_long"], r["replicas"], r["seed"], r["workers"])
    reports = []
    for i in range(params.k):
        od = group_to_1d(params, [i + 1])
        ks = ks_one_sample(samples[:, i], stationary_beta_cdf(od))
        reports.append(
            {
                "component": i + 1,
                "beta_params": [2.0 * od.a0, 2.0 * od.a1],
                "ks": ks.as_dict(),
                "pass_5pct": ks.passes(0.05),
            }
        )
    return _write(r, "stationary-test.json", rio.canonical_json({"n_replicas": r["replicas"], "tests": reports}))


_COMMANDS: dict[str, tuple[list[Opt], Callable[[dict], list[dict]]]] = {
    "simulate-urn": (
        _COMMON
        + [
            Opt("alpha", float, 1.0),
            Opt("beta", float, 0.5),
            Opt("b", _floats, [1.0, 1.0], "fixed ball counts, comma list"),
            Opt("b0", _floats, None, "initial variable counts (default: b)"),
            Opt("steps", int, 100),
        ],
        _run_simulate_urn,
    ),
    "simulate-wf": (
        _COMMON + _WF + [
            Opt("x0", _floats, None, "start point (default p)"),
            Opt("t-max", float, 1.0),
            Opt("dt", float, SdeConfig.dt),
            Opt("replicas", int, 1),
        ],
        _run_simulate_wf,
    ),
    "density": (
        _COMMON + _WF + [
            Opt("y0", _floats, [0.5], "start point, full or reduced coordinates"),
            Opt("y", _floats, [0.5], "evaluation point"),
            Opt("t", float, 1.0),
            Opt("max-degree", int, None),
        ],
        _run_density,
    ),
    "boundary": (
        _COMMON + _WF + [Opt("j", _ints, [1], "color group, comma list of 1-based colors")],
        _run_boundary,
    ),
    "hit-prob": (
        _COMMON
        + [
            Opt("a0", float, 0.5),
            Opt("a1", float, 0.5),
            Opt("a", float, 0.25),
            Opt("b-pt", float, 0.75),
            Opt("z0", float, 0.5),
        ],
        _run_hit_prob,
    ),
    "converge": (
        _COMMON + _WF + [
            Opt("x0", _floats, None),
            Opt("betas", _floats, [0.9, 0.99], "comma list of beta values"),
            Opt("times", _floats, [1.0], "checkpoint times in rescaled units"),
            Opt("replicas", int, 500),
            Opt("dt", float, SdeConfig.dt),
        ],
        _run_converge,
    ),
    "stationary-test": (
        _COMMON + _WF + [
            Opt("beta", float, 0.99),
            Opt("t-long", float, 10.0),
            Opt("replicas", int, 1000),
        ],
        _run_stationary_test,
    ),
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rpwf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (opts, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for opt in opts:
            p.add_argument(f"--{opt.name}", dest=opt.dest, type=str, default=None, help=opt.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    opts, runner = _COMMANDS[ns.command]
    try:
        resolved = _resolve(opts, ns)
        raw = resolved.pop("_raw")
        outputs = runner(resolved)
        data = rio.canonical_json(rio.build_manifest(ns.command, raw, resolved["seed"], outputs))
        rio.write_bytes(outputs[0]["path"] + ".manifest.json", data)
    except ValidationError as exc:
        print(f"error: --{exc.field.lower()}: {exc.reason}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # writing an output or the manifest
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    sys.stdout.write(data.decode())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
