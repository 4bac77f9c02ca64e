import json

import numpy as np

from rpwf.io import (
    canonical_json,
    ensemble_summary_json,
    fmt,
    path_csv,
    rescaled_path_csv,
    samples_csv,
    sha256_bytes,
    urn_trajectory_csv,
    urn_trajectory_json,
)
from rpwf.rng import generator
from rpwf.scaling import ScaledFamilyParams, build_family_member, rescale_time
from rpwf.urn import simulate_urn
from rpwf.wright_fisher import SdeConfig, WfParams, simulate_wf


def test_fmt_round_trips_doubles():
    rng = generator(3, "fmt")
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
        assert float(fmt(x)) == x


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

    p = build_family_member(ScaledFamilyParams(1.0, np.array([1.0, 1.0]), 0.8))
    rp = rescale_time(simulate_urn(p, 100, 3), t_max=2.0, dt_out=1.0)
    rlines = rescaled_path_csv(rp).decode().strip().splitlines()
    assert rlines[0] == "t,X_1,X_2"
    assert len(rlines) == 4


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
