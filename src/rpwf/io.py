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

from .urn import UrnTrajectory
from .wright_fisher import PathRecord

__all__ = [
    "canonical_json",
    "sha256_bytes",
    "write_bytes",
    "urn_trajectory_csv",
    "urn_trajectory_json",
    "path_csv",
    "path_json",
    "ensemble_summary_json",
    "samples_csv",
    "build_manifest",
]


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


def _csv(lead: str, column: str, k: int, leads, rows: list) -> bytes:
    """CSV of the header ``lead,column_1..column_k`` and, per row of floats, its lead fields then the floats printed with ``%.17g``."""
    line = ",".join(["%.17g"] * len(rows[0] if rows else ()))
    lines = [lead + "," + ",".join(f"{column}_{i+1}" for i in range(k))]
    lines += [f"{head}{line % tuple(row)}" for head, row in zip(leads, rows)]
    return ("\n".join(lines) + "\n").encode()


def urn_trajectory_csv(traj: UrnTrajectory) -> bytes:
    colors = ["", *traj.draws.tolist()]  # no draw before step 1
    return _csv("n,color", "psi", traj.params.k, [f"{n},{c}," for n, c in enumerate(colors)], traj.psi.tolist())


def urn_trajectory_json(traj: UrnTrajectory) -> bytes:
    return canonical_json(
        {
            "params": traj.params.as_dict(),
            "seed": traj.seed.as_dict(),
            "draws": [int(c) for c in traj.draws],
            "psi": [[float(v) for v in row] for row in traj.psi],
        }
    )


def path_csv(path: PathRecord) -> bytes:
    return _csv("t", "X", path.X.shape[1], [""] * len(path.t), np.column_stack((path.t, path.X)).tolist())


def path_json(path: PathRecord) -> bytes:
    return canonical_json(
        {
            "seed": path.seed.as_dict(),
            "t": [float(v) for v in path.t],
            "X": [[float(v) for v in row] for row in path.X],
        }
    )


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
    leads = [f"{name},{i}," for name, arr in (("urn", urn_values), ("wf", wf_values)) for i in range(len(arr))]
    return _csv("source,replica", "X", urn_values.shape[1], leads, urn_values.tolist() + wf_values.tolist())


def build_manifest(command: str, params: dict, seed: int, outputs: list[dict]) -> dict:
    return {
        "command": command,
        "params": params,
        "seed": seed,
        "outputs": outputs,
    }
