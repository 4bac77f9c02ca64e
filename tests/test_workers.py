"""Replica ensembles split over worker processes.

``rng.map_replicas`` hands each worker a contiguous slice of the stream
keys, so row i reads stream (seed, label, i) whatever the worker count:
outputs must be byte-identical at workers 1, 2 and 3, including replica
counts the worker count does not divide and counts below it.  Bad inputs
must be rejected before any process starts, and an error raised inside a
worker must reach the caller as the same ``ValidationError``.
"""

import functools
import pickle

import numpy as np
import pytest

from rpwf.cli import main
from rpwf.errors import ValidationError
from rpwf.rng import StreamKey, map_replicas
from rpwf.scaling import ScaledFamilyParams, build_family_member, eps_delta
from rpwf.stats import ConvergenceConfig, convergence_experiment, stationary_urn_samples
from rpwf.urn import simulate_urn_ensemble
from rpwf.wright_fisher import SdeConfig, WfParams, simulate_wf_ensemble

WORKERS = (1, 2, 3)
WF3 = WfParams(b=1.5, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))
URN = build_family_member(ScaledFamilyParams(1.0, np.array([0.5, 1.0, 1.5]), 0.8))


def _same_bytes(arrays):
    assert all(a.tobytes() == arrays[0].tobytes() and a.shape == arrays[0].shape for a in arrays)


@pytest.mark.parametrize("n_replicas", [7, 2])  # 7 is split unevenly, 2 is below three workers
def test_urn_ensemble_bytes_do_not_depend_on_workers(n_replicas):
    outs = [simulate_urn_ensemble(URN, 40, n_replicas, 3, "u", [0, 17, 40], workers=w) for w in WORKERS]
    assert outs[0].shape == (3, n_replicas, 3)
    _same_bytes(outs)


@pytest.mark.parametrize("n_replicas", [7, 2])
def test_wf_ensemble_bytes_do_not_depend_on_workers(n_replicas):
    cfg = SdeConfig(dt=0.01)
    outs = [simulate_wf_ensemble(WF3, WF3.p, 0.3, cfg, n_replicas, 4, "w", [0.1, 0.3], workers=w) for w in WORKERS]
    assert outs[0].shape == (2, n_replicas, 3)
    _same_bytes(outs)


def test_convergence_experiment_does_not_depend_on_workers():
    reports = [
        convergence_experiment(
            ConvergenceConfig(
                wf=WF3, betas=(0.6, 0.8), times=(0.1, 0.25), n_replicas=7, dt=0.01, seed=2, workers=w, keep_samples=True
            )
        )
        for w in WORKERS
    ]
    for r in reports[1:]:
        assert r == reports[0]  # distances, moment z-scores and the rest of the report
        assert r.samples.keys() == reports[0].samples.keys()
        for key, (urn_vals, wf_vals) in r.samples.items():  # the urn half and the EM half
            _same_bytes([urn_vals, reports[0].samples[key][0]])
            _same_bytes([wf_vals, reports[0].samples[key][1]])


def test_stationary_urn_samples_do_not_depend_on_workers():
    _same_bytes([stationary_urn_samples(WF3, 0.8, 0.5, 5, 9, workers=w) for w in WORKERS])


def test_cli_simulate_wf_replicas_bytes_do_not_depend_on_workers(tmp_path, capsys):
    outs = []
    for w in WORKERS:
        out = tmp_path / f"w{w}.json"
        argv = ["simulate-wf", "--b", "1,2", "--t-max", "0.2", "--dt", "0.01", "--replicas", "5", "--seed", "3"]
        assert main(argv + ["--workers", str(w), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


def test_validation_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ValidationError("steps", "must be >= 0, got -1")))
    assert type(err) is ValidationError
    assert (err.field, err.reason, str(err)) == ("steps", "must be >= 0, got -1", "steps: must be >= 0, got -1")


def test_error_raised_in_a_worker_reaches_the_caller():
    job = functools.partial(eps_delta, 0.0, 1.0)  # alpha = 0 is rejected inside each worker
    with pytest.raises(ValidationError) as exc:
        map_replicas(job, [StreamKey(0, "x", i) for i in range(4)], workers=2)
    assert exc.value.field == "alpha"


@pytest.mark.parametrize("workers", [0, -3])
def test_map_replicas_rejects_workers_below_one(workers):
    with pytest.raises(ValidationError) as exc:
        map_replicas(len, [StreamKey(0)], workers)
    assert exc.value.field == "workers"
    with pytest.raises(ValidationError) as exc:
        simulate_urn_ensemble(URN, 5, 3, 0, workers=workers)
    assert exc.value.field == "workers"


COMMANDS = ["simulate-urn", "simulate-wf", "density", "boundary", "hit-prob", "converge", "stationary-test"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, command, workers):
    out = tmp_path / "out.json"
    assert main([command, "--workers", workers, "--out", str(out)]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_stationary_samples_reject_negative_t_long():
    with pytest.raises(ValidationError) as exc:
        stationary_urn_samples(WF3, 0.9, -1.0, 50, 0, workers=2)
    assert exc.value.field == "t-long"


def test_stationary_samples_reject_more_urn_steps_than_the_cap():
    # 1000 / (1 - 0.9999)^2 = 1e11 urn steps: rejected at once instead of running
    with pytest.raises(ValidationError) as exc:
        stationary_urn_samples(WF3, 0.9999, 1000.0, 50, 0)
    assert exc.value.field == "t-long"
    assert "urn steps, over 20000000" in exc.value.reason


@pytest.mark.parametrize("beta,t_long", [("0.9", "-1"), ("0.9999", "1000")])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_stationary_test_rejects_bad_t_long(tmp_path, capsys, beta, t_long, workers):
    out = tmp_path / "s.json"
    argv = ["stationary-test", "--b", "1,1", "--beta", beta, "--t-long", t_long, "--replicas", "50"]
    assert main(argv + ["--workers", workers, "--out", str(out)]) == 2
    assert "--t-long" in capsys.readouterr().err
    assert not out.exists()
