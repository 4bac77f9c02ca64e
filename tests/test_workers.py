"""Replica ensembles split over worker processes.

``rng.map_replicas`` hands each worker a contiguous slice of the stream
keys, so row i reads stream (seed, label, i) whatever the worker count:
outputs must be byte-identical at workers 1, 2 and 3, including replica
counts the worker count does not divide and counts below it.  The calling
process runs the first slice itself, and each slice draws on its share of
the run's noise budget, in blocks of a one-worker run's length, with no
draw call filling more than ``rng._CALL_VALUES`` values, into one buffer of
the largest block it can fill.  Bad inputs must be rejected before any
process starts, and an error raised inside a worker must reach the
caller as the same ``ValidationError``.  At the default worker count a
small run, or one inside a daemonic process, starts no process.
"""

import concurrent.futures
import functools
import multiprocessing
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from rpwf import rng, urn, wright_fisher
from rpwf.cli import main
from rpwf.errors import ValidationError
from rpwf.rng import StreamKey, check_sizes, map_replicas
from rpwf.scaling import ScaledFamilyParams, build_family_member, eps_delta
from rpwf.stats import ConvergenceConfig, convergence_experiment, stationary_urn_samples
from rpwf.urn import UrnParams, simulate_urn, simulate_urn_ensemble
from rpwf.wright_fisher import (
    OneDimWf,
    SdeConfig,
    WfParams,
    marginal_ensemble_values,
    marginal_first_passage,
    marginal_touch_flags,
    simulate_wf,
    simulate_wf_ensemble,
)

WORKERS = (1, 2, 3)
WF3 = WfParams(b=1.5, alpha=1.0, p=np.array([0.2, 0.3, 0.5]))
URN = build_family_member(ScaledFamilyParams(1.0, np.array([0.5, 1.0, 1.5]), 0.8))
OD = OneDimWf(a0=0.3, a1=0.7)


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
                wf=WF3, betas=(0.6, 0.8), times=(0.1, 0.25), n_replicas=7, dt=0.01, seed=2, workers=w
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


def _slices(n_paths, workers):
    bounds = [n_paths * w // workers for w in range(workers + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# (paths, dt, steps): 7 is split unevenly and 2 is below three workers, both at or below the scalar
# tail, so every slice starts in it at n = 0; 50 paths run the vector step at one worker and start in
# the tail in slices of 25 and 16-17; 200 paths over 2500 steps (the first-exit pins) hand off at the
# end of the first or the second 1024-step block in every slice of 100 and 66-67
EXIT_RUNS = [(7, 1e-2, 60), (2, 1e-2, 60), (50, 1e-2, 80), (200, 1e-3, 2500)]


def _default_of(monkeypatch, cpus):
    """Make the default worker count ``cpus`` for any run of at least ``cpus`` noise values."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(rng, "_SPLIT_VALUES", 1)


@pytest.mark.parametrize("n_paths,dt,n_steps", EXIT_RUNS)
def test_first_exits_do_not_depend_on_workers(monkeypatch, n_paths, dt, n_steps):
    t = n_steps * dt
    runs = []
    for w in WORKERS:  # the marginal front-ends take the default worker count
        _default_of(monkeypatch, w)
        assert rng._default_workers(n_paths * n_steps) == w
        tau, hit = marginal_first_passage(OD, 0.5, 0.1, 0.9, dt, n_paths, 3, t_cap=t)
        touched = marginal_touch_flags(OD, 0.5, 0.3, t, dt, n_paths, 3)
        values = marginal_ensemble_values(OD, 0.5, t, dt, n_paths, 3)
        runs.append((tau, hit, touched, values))
    for parts in zip(*runs):
        _same_bytes(parts)
    tau, values = runs[0][0], runs[0][3]
    assert tau.shape == values.shape == (n_paths,)
    if n_paths == 200:  # each slice is handed to the tail mid-run: above the tail's size at n = 0, at or below at 2048
        live = np.isnan(tau) | (np.round(tau / dt) > 2048)
        for w in WORKERS:
            for part in _slices(n_paths, w):
                assert live[part].size > rng._SCALAR_TAIL >= live[part].sum()


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoints_on_one_step_equal_their_single_paths(monkeypatch, workers):
    # two checkpoints on one step share it; the EM times 0.104 and 0.096 both round to step 10, given out of order
    _default_of(monkeypatch, workers)
    urns = simulate_urn_ensemble(URN, 5, 3, 3, "u", [5, 5, 0])
    paths = simulate_wf_ensemble(WF3, WF3.p, 0.2, SdeConfig(0.01), 3, 4, "w", [0.2, 0.104, 0.096, 0.0])
    assert rng._default_workers(3 * 5) == workers
    for i in range(3):
        assert urns[:, i].tobytes() == simulate_urn(URN, 5, StreamKey(3, "u", i)).psi[[5, 5, 0]].tobytes()
        X = simulate_wf(WF3, WF3.p, 0.2, SdeConfig(0.01), StreamKey(4, "w", i)).X
        assert paths[:, i].tobytes() == X[[20, 10, 10, 0]].tobytes()


class _InProcess:
    """Stands in for the process pool: runs each submitted slice here, at once, so that its draws can be watched."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


class _Watched:
    """A generator that appends to ``chunks`` the length of every block fill (a draw given ``out``)."""

    def __init__(self, gen, chunks):
        self.gen, self.chunks = gen, chunks

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def draw(*args, out=None, **kwargs):
            if out is not None:
                self.chunks.append(out.shape[0])
            return method(*args, out=out, **kwargs)

        return draw


def _watch_slices(monkeypatch) -> list[dict]:
    """Record each ``run_streams`` call of the models: its first key, replicas, block fills and noise buffer.

    The buffer is read with ``tracemalloc`` at the first step, as the largest
    allocation the call still holds.
    """
    calls, real_generators, real_run = [], rng.generators, rng.run_streams

    def run_streams(keys, n_steps, state, kernel, observe, *args, **kwargs):
        call = {"first": keys[0].index, "replicas": len(keys), "chunks": [], "buffer": 0}

        def first_step(state, noise):
            if not call["buffer"]:
                call["buffer"] = max(trace.size for trace in tracemalloc.take_snapshot().traces)
            return kernel(state, noise)

        monkeypatch.setattr(rng, "generators", lambda ks: [_Watched(g, call["chunks"]) for g in real_generators(ks)])
        tracemalloc.start()
        try:
            return real_run(keys, n_steps, state, first_step, observe, *args, **kwargs)
        finally:
            tracemalloc.stop()
            calls.append(call)

    for module in (rng, wright_fisher):
        monkeypatch.setattr(module, "run_streams", run_streams)
    return calls


# (components, run) of 600 replicas; at a 2^16-value budget a one-worker run fills blocks of 109
# steps (urn, 1-d paths) or 36 (k = 3 EM), fewer than each run takes, and so must every slice
SPLIT_RUNS = {
    "urn": (1, lambda: simulate_urn_ensemble(URN, 300, 600, 3)),
    "wf": (WF3.k, lambda: simulate_wf_ensemble(WF3, WF3.p, 1.0, SdeConfig(0.01), 600, 4)),
    "values": (1, lambda: marginal_ensemble_values(OD, 0.5, 3.0, 0.01, 600, 3)),
    "first_exit": (1, lambda: marginal_first_passage(OD, 0.5, 0.1, 0.9, 0.01, 600, 3, 3.0)),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_slices_split_the_noise_budget(monkeypatch, name, workers):
    monkeypatch.setattr(rng, "_BLOCK_VALUES", 1 << 16)
    _default_of(monkeypatch, workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcess)
    calls = _watch_slices(monkeypatch)
    k, run = SPLIT_RUNS[name]
    run()
    calls.sort(key=lambda call: call["first"])
    assert [call["replicas"] for call in calls] == [part.stop - part.start for part in _slices(600, workers)]
    chunk = rng._BLOCK_VALUES // (600 * k)  # steps per block at one worker
    for call in calls:
        share, row = rng._BLOCK_VALUES * call["replicas"] // 600, call["replicas"] * k
        assert call["chunks"][: call["replicas"]] == [chunk] * call["replicas"]  # the first block, one fill per replica
        assert 8 * chunk * row <= call["buffer"] <= 8 * (share + row)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("call_values", [64, 1024])  # the call cap binds (64 / 1 and 64 / 3 steps), or the budget
@pytest.mark.parametrize("name", ["urn", "wf"])
def test_draw_calls_fill_at_most_the_call_cap(monkeypatch, name, call_values, workers):
    monkeypatch.setattr(rng, "_BLOCK_VALUES", 1 << 16)
    monkeypatch.setattr(rng, "_CALL_VALUES", call_values)
    _default_of(monkeypatch, workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcess)
    calls = _watch_slices(monkeypatch)
    k, run = SPLIT_RUNS[name]
    run()
    assert len(calls) == workers
    for call in calls:
        share, row = rng._BLOCK_VALUES * call["replicas"] // 600, call["replicas"] * k
        steps = min(call_values // k, share // row)
        assert (steps == call_values // k) == (call_values == 64)
        assert max(call["chunks"]) * k <= call_values and call["chunks"][: call["replicas"]] == [steps] * call["replicas"]
        # the largest block the call can fill: where the cap binds, the first one (steps x row values); where the
        # budget binds, its share, which a block after retirements, narrower but of more steps, may come close to
        assert call["buffer"] == 8 * min(share, call_values // k * row)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_small_runs_start_no_process_at_the_default(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    _same_bytes([simulate_urn_ensemble(URN, 40, 7, 3, "u", [0, 40], workers=w) for w in (None, 1)])
    _same_bytes([simulate_wf_ensemble(WF3, WF3.p, 0.3, SdeConfig(0.01), 7, 4, workers=w) for w in (None, 1)])
    marginal_first_passage(OD, 0.5, 0.1, 0.9, 1e-2, 50, 3, 0.8)  # these take the default only
    marginal_touch_flags(OD, 0.5, 0.3, 0.8, 1e-2, 50, 3)
    marginal_ensemble_values(OD, 0.5, 0.8, 1e-2, 50, 3)
    _same_bytes([stationary_urn_samples(WF3, 0.8, 0.5, 5, 9, workers=w) for w in (None, 1)])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_default_workers_are_the_usable_cpus_capped_by_run_size(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    split = rng._SPLIT_VALUES
    assert [rng._default_workers(v) for v in (0, split - 1, split, 2 * split - 1)] == [1, 1, 1, 1]
    assert rng._default_workers(2 * split) == min(cpus, 2)
    assert rng._default_workers(3 * split) == rng._default_workers(10**12) == cpus
    monkeypatch.delattr(os, "sched_getaffinity")  # where it does not exist, the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert rng._default_workers(10**12) == cpus
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng._default_workers(10**12) == 1


def test_default_inside_a_pool_worker_stays_in_process(monkeypatch):
    # 40 paths x 10^6 steps is over the size rule: two workers at the default, where a process may start them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # inherited by the forked pool worker
    args = (OD, 0.5, 0.49, 0.51, 1e-4, 40, 5, 100.0)
    assert rng._default_workers(40 * 10**6) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(marginal_first_passage, args)  # a daemonic process: its own pool would raise AssertionError
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the reference runs here, in one process
    for part, ref in zip(got, marginal_first_passage(*args)):
        _same_bytes([part, ref])


def _fail_in(pid, keys, budget):
    """Raise in process ``pid``; elsewhere return after a while, so a pool not joined would still be running."""
    if os.getpid() == pid:
        raise ValidationError("seed", "raised in the calling process")
    time.sleep(0.3)
    return np.zeros((1, len(keys)))


def test_pool_is_joined_when_the_callers_slice_raises():
    before = set(multiprocessing.active_children())
    with pytest.raises(ValidationError) as exc:
        map_replicas(functools.partial(_fail_in, os.getpid()), [StreamKey(0, "x", i) for i in range(6)], 3, 0)
    assert exc.value.field == "seed"
    assert set(multiprocessing.active_children()) == before


def _unreachable(*args, **kwargs):
    raise AssertionError("a stream key or generator was built")


BIG = rng._MAX_REPLICAS + 1
OVER_THE_CAP = {
    "urn": lambda: simulate_urn_ensemble(URN, 5, BIG, 0),
    "wf": lambda: simulate_wf_ensemble(WF3, WF3.p, 0.1, SdeConfig(0.01), BIG, 0),
    "values": lambda: marginal_ensemble_values(OD, 0.5, 0.1, 0.01, BIG, 0),
    "first_passage": lambda: marginal_first_passage(OD, 0.5, 0.2, 0.8, 0.01, BIG, 0),
    "touch": lambda: marginal_touch_flags(OD, 0.5, 0.3, 0.1, 0.01, BIG, 0),
    "converge": lambda: convergence_experiment(ConvergenceConfig(WF3, (0.5,), (0.1,), BIG, dt=0.01)),
    "stationary": lambda: stationary_urn_samples(WF3, 0.8, 0.5, BIG, 0),
}


def _no_stream_keys(monkeypatch):
    for module in (urn, wright_fisher):
        monkeypatch.setattr(module, "StreamKey", _unreachable)
    monkeypatch.setattr(rng, "generators", _unreachable)


@pytest.mark.parametrize("name", sorted(OVER_THE_CAP))
def test_replica_cap_is_checked_before_any_stream_key(monkeypatch, name):
    _no_stream_keys(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        OVER_THE_CAP[name]()
    assert exc.value.field == "replicas"
    check_sizes(0, rng._MAX_REPLICAS)  # the cap itself is allowed


def test_step_cap_is_checked_before_any_stream_key(monkeypatch):
    _no_stream_keys(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        simulate_urn_ensemble(UrnParams(1, 0.5, [1, 1], [1, 1]), 10**12, 2, 0, workers=1)
    assert exc.value.field == "steps"
    check_sizes(rng._MAX_STEPS, 1)  # the cap itself is allowed


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01"],
        ["converge", "--b", "1,1", "--betas", "0.5", "--times", "0.1", "--dt", "0.01"],
        ["stationary-test", "--b", "1,1", "--beta", "0.5", "--t-long", "0.1"],
    ],
)
def test_cli_rejects_replicas_over_the_cap(monkeypatch, tmp_path, capsys, argv):
    _no_stream_keys(monkeypatch)  # 10^8 keys and generators would take about 91 GB
    out = tmp_path / "out.json"
    assert main(argv + ["--replicas", "100000000", "--out", str(out)]) == 2
    assert "--replicas" in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ValidationError("steps", "must be >= 0, got -1")))
    assert type(err) is ValidationError
    assert (err.field, err.reason, str(err)) == ("steps", "must be >= 0, got -1", "steps: must be >= 0, got -1")


def test_error_raised_in_a_worker_reaches_the_caller():
    job = functools.partial(eps_delta, 0.0)  # alpha = 0 is rejected inside each worker, before keys and budget are read
    with pytest.raises(ValidationError) as exc:
        map_replicas(job, [StreamKey(0, "x", i) for i in range(4)], 2, 0)
    assert exc.value.field == "alpha"


@pytest.mark.parametrize("workers", [0, -3])
def test_map_replicas_rejects_workers_below_one(workers):
    with pytest.raises(ValidationError) as exc:
        map_replicas(len, [StreamKey(0)], workers, 0)
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
