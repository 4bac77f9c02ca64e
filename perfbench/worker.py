"""One workload in a fresh interpreter; started by run.py, one process per run.

``--mode setup`` imports rpwf, builds the workload's inputs and reports the
set-up time.  ``--mode run`` then also runs the timed body for ``--seconds``
and checks its outputs; ``--mode trace`` runs the body untraced for half of
``--seconds``, installs the tracer, builds the inputs again and runs the
body traced for the other half.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MAX_BODY_S = 120.0  # a body that runs longer stops after the current iteration


def iterate(wl, seconds: float, min_iters: int, min_calls: int = 0):
    """Run the body until the next iteration would end after ``seconds``.

    Returns the outcomes, their wall times, their output digests and the
    peak RSS in MB at the end of the first iteration.  Later iterations add
    only allocator noise to the high-water mark (it moves between two levels
    from process to process), so the peak covers set-up plus one iteration.
    """
    outs, times, digests = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out = wl.run()
        times.append(perf_counter() - t0)
        if not outs:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outs.append(out)
        digests.append(wl.digest(out.value))
        elapsed = perf_counter() - start
        calls = sum(len(o.latencies) for o in outs)
        if elapsed > MAX_BODY_S:
            break
        if len(outs) >= min_iters and calls >= min_calls and elapsed * (1 + 1 / len(outs)) > seconds:
            break
    return outs, times, digests, peak_rss_mb


def account(outs, digests, checks: dict) -> dict:
    """Operations attempted and failed, counting each check as one operation.

    An iteration whose output digest differs from the first one's fails as
    a whole.  A check that returned None (no output to check) fails but does
    not make the output incorrect; one that returned False does.
    """
    deterministic = all(d == digests[0] for d in digests)
    failed = sum(o.ops if d != digests[0] else o.failed for o, d in zip(outs, digests))
    failed += sum(1 for v in checks.values() if v is not True)
    return {
        "attempted": sum(o.ops for o in outs) + len(checks),
        "failed": failed,
        "correct": deterministic and all(v is not False for v in checks.values()),
        "deterministic": deterministic,
    }


def _as_bools(checks: dict) -> dict:
    return {k: None if v is None else bool(v) for k, v in checks.items()}


def work_rate(outs, times) -> float:
    """10th percentile (linear interpolation) of the per-iteration work rates.

    The machine this was built on runs in a slow or a fast state, about
    1.5x apart, for seconds to minutes at a time.  The slow state's speed
    repeats from run to run better than the share of time in the fast one,
    so the slow end of the rates spreads less across runs than their
    median does (README.md has the figures).
    """
    import numpy as np

    return float(np.percentile([o.work / t for o, t in zip(outs, times)], 10))


def env_info() -> dict:
    import numpy
    import scipy

    import rpwf

    path = Path(rpwf.__file__).resolve().parent
    if not path.is_relative_to(ROOT / "src"):
        raise SystemExit(f"rpwf was imported from {path}, not from this checkout's src/")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rpwf_path": str(path.relative_to(ROOT)),
    }


def end_to_end(outs, times, acc, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the call latency sample size, median and 99th percentile.

    Call latencies are recorded but are not metrics.  Outside ``spectral`` a
    call is one iteration, a handful per run, so no percentile above the
    median has ten samples beyond it.  On ``spectral`` a one-millisecond call
    samples the machine's fast or slow state, and the median jumped between
    the two from run to run (README.md has the figures).
    """
    import numpy as np

    lat = np.array([x for o in outs for x in o.latencies]) * 1e3
    p50, p99 = np.percentile(lat, [50, 99]) if lat.size else (0.0, 0.0)
    metrics = {
        "work_per_s": work_rate(outs, times),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - acc["failed"] / acc["attempted"],
    }
    return metrics, {"samples": int(lat.size), "p50_ms": float(p50), "p99_ms": float(p99)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    a = ap.parse_args(argv)

    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = WORKLOADS[a.workload](a.seed, workdir)
        setup_s = time.monotonic() - a.t0
        result = {"setup_s": setup_s, "env": env_info(), "unbuilt": getattr(wl, "unbuilt", [])}
        if a.mode == "run":
            outs, times, digests, peak_rss_mb = iterate(wl, a.seconds, 2, getattr(wl, "MIN_CALLS", 0))
            checks = _as_bools(wl.checks(outs[0].value))
            acc = account(outs, digests, checks)
            metrics, latency = end_to_end(outs, times, acc, peak_rss_mb)
            result.update(acc, metrics=metrics, checks=checks, iteration_s=times, latency=latency, unit=wl.unit)
        elif a.mode == "trace":
            result.update(traced(a, wl, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced(a, wl, workdir) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    half = a.seconds / 2.0
    outs0, times0, digests0, _ = iterate(wl, half, 1)
    tracer = Tracer()
    tracer.install()
    tracer.phase = "setup"
    wl2 = WORKLOADS[a.workload](a.seed, workdir)
    wl2.tracer = tracer
    tracer.phase = "body"
    outs1, times1, digests1, _ = iterate(wl2, half, 1)
    tracer.phase = "checks"
    checks = _as_bools(wl2.checks(outs1[0].value))
    acc = account(outs0 + outs1, digests0 + digests1, checks)
    layers = tracer.layer_metrics(len(outs1))
    layers["trace.overhead_frac"] = (work_rate(outs0, times0) / work_rate(outs1, times1) - 1.0, "ratio")
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{a.workload}.jsonl")
    return dict(acc, metrics=metrics, units=units, checks=checks, iteration_s=[times0, times1], spans=len(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
