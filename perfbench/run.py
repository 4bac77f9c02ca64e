"""rpwf benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the seed and the run environment.  Both lines
are also written to ``.perfbench-out/``.

Every workload runs in fresh worker processes (worker.py): ``setup_s`` is
the median over three set-ups, two of them in set-up-only processes, and
``peak_rss_mb`` is the high-water mark of the process that ran the body.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("converge", "first_passage", "wf_k5", "spectral", "cli")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one process, one thread: steadier timings on a small shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("RPWF_SEED", None)
    return env


def run_child(args: list[str], deadline: float, capture_stderr: bool = False) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker timed out: {' '.join(args[:3])}") from exc


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = run_child(args + ["--t0", repr(time.monotonic())], deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(workload: str, deadline: float) -> dict:
    """Import cost of rpwf from ``-X importtime`` in a fresh interpreter.

    ``setup.import_s`` sums the cumulative time of the top-level rpwf
    imports; ``setup.import_scipy_s`` sums the self time of every scipy
    module, wherever it was imported from.
    """
    stmt = "import rpwf, rpwf.cli" if workload == "cli" else "import rpwf"
    proc = run_child(["-X", "importtime", "-c", stmt], deadline, capture_stderr=True)
    if proc.returncode != 0:
        raise BenchError("import of rpwf failed")
    rpwf_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2][1:]
        if name.split(".")[0] == "rpwf":
            rpwf_us += cum_us
        if name.strip().split(".")[0] == "scipy":
            scipy_us += self_us
    return {"setup.import_s": rpwf_us * 1e-6, "setup.import_scipy_s": scipy_us * 1e-6}


def environment(seed: int, trace: int, workload: str) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rpwf").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def declared_metrics(trace: int) -> dict | None:
    """Names and units that BENCHMARK.json declares for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rpwf" / "__init__.py").is_file():
        print(f"error: no rpwf sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)

    info = environment(a.seed, a.trace, a.workload)
    if a.trace:
        imports = import_times(a.workload, deadline)
        res = worker(a.workload, a.seed, a.seconds, "trace", deadline)
        values = dict(res["metrics"], **imports)
        units = dict(res["units"], **{name: "s" for name in imports})
        info.update(iteration_s=res["iteration_s"], spans=res["spans"])
    else:
        setups = [worker(a.workload, a.seed, a.seconds, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
        res = worker(a.workload, a.seed, a.seconds, "run", deadline)
        setups.append(res["setup_s"])
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
        info.update(
            unit=res["unit"], iteration_s=res["iteration_s"], latency=res["latency"], setup_samples=setups
        )
    info.update(res["env"], checks=res["checks"], deterministic=res["deterministic"], unbuilt=res["unbuilt"])

    units = {name: units[name] for name in values}
    declared = declared_metrics(a.trace)
    if declared is not None and declared != units:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(declared.items()) ^ set(units.items()))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    (OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps({"environment": info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
