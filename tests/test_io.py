import inspect
import io
import json

import numpy as np

import rpwf.io
from rpwf.io import (
    canonical_json,
    ensemble_summary_json,
    path_csv,
    samples_csv,
    sha256_bytes,
    urn_trajectory_csv,
    urn_trajectory_json,
)
from rpwf.rng import generator
from rpwf.scaling import ScaledFamilyParams, build_family_member, rescale_time
from rpwf.urn import UrnTrajectory, simulate_urn
from rpwf.wright_fisher import PathRecord, SdeConfig, WfParams, simulate_wf


def test_urn_trajectory_csv_layout():
    p = build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 1.0]), 0.5))
    traj = simulate_urn(p, 5, 1)
    lines = urn_trajectory_csv(traj).decode().strip().splitlines()
    assert lines[0] == "n,color,psi_1,psi_2"
    assert len(lines) == 7
    assert lines[1].split(",")[1] == ""  # no draw before step 1
    for n, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == n
        assert float(fields[2]) == traj.psi[n, 0]


def test_urn_trajectory_json_fields():
    p = build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 2.0]), 0.5))
    traj = simulate_urn(p, 4, 9)
    data = json.loads(urn_trajectory_json(traj).decode())
    assert set(data) == {"params", "seed", "draws", "psi"}
    assert data["seed"]["seed"] == 9
    assert len(data["psi"]) == 5


def test_path_and_rescaled_csv_headers():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.4, 0.6]))
    path = simulate_wf(params, params.p, 0.02, SdeConfig(dt=0.01), 2)
    lines = path_csv(path).decode().strip().splitlines()
    assert lines[0] == "t,X_1,X_2"
    assert len(lines) == 4

    # a rescaled urn path is written as a path: its floats read back bit for bit
    p = build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 1.0]), 0.8))
    rp = rescale_time(simulate_urn(p, 100, 3), t_max=2.0, dt_out=1.0)
    rng = generator(3, "csv-round-trip")
    X = np.concatenate([rp.X.ravel(), rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    X = np.concatenate([X, [-0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300]]).reshape(-1, 2)
    t = np.arange(len(X)) * 0.1
    back = np.loadtxt(io.StringIO(path_csv(PathRecord(t, X, path.seed)).decode()), delimiter=",", skiprows=1)
    assert back.tobytes() == np.column_stack((t, X)).tobytes()  # bitwise, so -0.0 differs from 0.0


def test_ensemble_summary_fields():
    vals = generator(7, "ens").random((50, 3))
    data = json.loads(ensemble_summary_json(1.5, vals, {"seed": 7, "label": "ens"}).decode())
    assert data["t"] == 1.5
    assert data["seed"] == {"seed": 7, "label": "ens"}
    assert data["n_paths"] == 50
    assert len(data["mean"]) == 3 and len(data["stderr"]) == 3


def test_samples_csv_shape():
    u = generator(1, "s").random((4, 2))
    w = generator(2, "s").random((3, 2))
    lines = samples_csv(u, w).decode().strip().splitlines()
    assert lines[0] == "source,replica,X_1,X_2"
    assert len(lines) == 8
    assert lines[1].startswith("urn,0,") and lines[-1].startswith("wf,2,")


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [1.5, 2.5]})
    b = canonical_json({"a": [1.5, 2.5], "b": 1})
    assert a == b
    assert sha256_bytes(a) == sha256_bytes(b)


def _with_extremes(a: np.ndarray) -> np.ndarray:
    """A float copy of a with -0.0 and the smallest subnormal among its values."""
    a = np.array(a, dtype=float)
    a.flat[1], a.flat[-2] = -0.0, 5e-324
    return a


def _pinned_csvs() -> list[bytes]:
    p = build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 2.0, 0.5]), 0.9))
    traj = simulate_urn(p, 60, 11)
    wf = WfParams(b=1.0, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))
    path = simulate_wf(wf, wf.p, 0.2, SdeConfig(dt=0.01), 5)
    return [
        urn_trajectory_csv(UrnTrajectory(traj.params, traj.draws, _with_extremes(traj.psi), traj.seed)),
        path_csv(PathRecord(_with_extremes(path.t), _with_extremes(path.X), path.seed)),
        samples_csv(_with_extremes(generator(1, "s").random((6, 3))), generator(2, "s").random((5, 3)) * 1e-300),
    ]


# sha256 of urn_trajectory_csv, path_csv and samples_csv at fixed seeds, each
# with a -0.0 and a 5e-324 among its values, taken when every writer formatted its own rows
_CSV_SHA = [
    "bcf39677dd02ee565eb536e17f28fff5306b1ef046f18c5b038daa3dfc5313b6",
    "12c6ce531635491dd9e0a479fa232bb0f3ad0434feb4bde2c74d6faa68941d57",
    "f496aaf22b89efbc9fc22bcc65fc6f39a752efc2c552b1e64504e2c6c6b509a9",
]


def test_csv_writers_keep_their_bytes():
    assert [sha256_bytes(data) for data in _pinned_csvs()] == _CSV_SHA


def test_every_public_function_of_io_is_exported():
    # path_json, which simulate-wf --format json writes, was once left out of __all__
    functions = [n for n, f in vars(rpwf.io).items() if inspect.isfunction(f) and f.__module__ == "rpwf.io"]
    defined = {n for n in functions if not n.startswith("_")}
    assert defined - set(rpwf.io.__all__) == set()
