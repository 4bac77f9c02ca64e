"""Deterministic file output: CSV/JSON exports and run manifests.

Floats are printed with 17 significant digits (round-trip exact); JSON is
emitted with sorted keys and fixed separators so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .scaling import RescaledPath
from .urn import UrnTrajectory
from .wright_fisher import PathRecord

__all__ = [
    "fmt",
    "canonical_json",
    "sha256_bytes",
    "write_bytes",
    "urn_trajectory_csv",
    "urn_trajectory_json",
    "path_csv",
    "rescaled_path_csv",
    "ensemble_summary_json",
    "samples_csv",
    "build_manifest",
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n").encode()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_bytes(path: str | Path, data: bytes) -> dict:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return {"path": str(path), "sha256": sha256_bytes(data), "bytes": len(data)}


def urn_trajectory_csv(traj: UrnTrajectory) -> bytes:
    k = traj.params.k
    lines = ["n,color," + ",".join(f"psi_{i+1}" for i in range(k))]
    for n in range(traj.psi.shape[0]):
        color = "" if n == 0 else str(int(traj.draws[n - 1]))
        lines.append(f"{n},{color}," + ",".join(fmt(v) for v in traj.psi[n]))
    return ("\n".join(lines) + "\n").encode()


def urn_trajectory_json(traj: UrnTrajectory) -> bytes:
    return canonical_json(
        {
            "params": traj.params.as_dict(),
            "seed": traj.seed.as_dict(),
            "draws": [int(c) for c in traj.draws],
            "psi": [[float(v) for v in row] for row in traj.psi],
        }
    )


def _t_x_csv(t: np.ndarray, X: np.ndarray) -> bytes:
    k = X.shape[1]
    lines = ["t," + ",".join(f"X_{i+1}" for i in range(k))]
    for ti, row in zip(t, X):
        lines.append(fmt(ti) + "," + ",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def path_csv(path: PathRecord) -> bytes:
    return _t_x_csv(path.t, path.X)


def path_json(path: PathRecord) -> bytes:
    return canonical_json(
        {
            "seed": path.seed.as_dict(),
            "t": [float(v) for v in path.t],
            "X": [[float(v) for v in row] for row in path.X],
        }
    )


def rescaled_path_csv(path: RescaledPath) -> bytes:
    return _t_x_csv(path.t_grid, path.X)


def ensemble_summary_json(t: float, values: np.ndarray, seed: dict) -> bytes:
    """Summary of an (M, k) ensemble slice at one time point."""
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    return canonical_json(
        {
            "t": float(t),
            "mean": [float(v) for v in mean],
            "stderr": [float(v) for v in stderr],
            "n_paths": int(values.shape[0]),
            "seed": seed,
        }
    )


def samples_csv(urn_values: np.ndarray, wf_values: np.ndarray) -> bytes:
    """Two ensembles side by side: source, replica, X_1..X_k."""
    k = urn_values.shape[1]
    lines = ["source,replica," + ",".join(f"X_{i+1}" for i in range(k))]
    for name, arr in (("urn", urn_values), ("wf", wf_values)):
        for i, row in enumerate(arr):
            lines.append(f"{name},{i}," + ",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def build_manifest(command: str, params: dict, seed: int, outputs: list[dict]) -> dict:
    return {
        "command": command,
        "params": params,
        "seed": seed,
        "outputs": outputs,
    }
