import json

import numpy as np
import pytest

from rpwf.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def read_manifest(out):
    return json.loads(out)


def test_simulate_urn_row_count(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _ = run(["simulate-urn", "--steps", "10", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,color,psi_1")
    assert len(lines) == 12  # header + 11 psi rows


def test_simulate_urn_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _, m1 = run(["simulate-urn", "--steps", "50", "--seed", "9", "--out", str(out1)], capsys)
    _, m2 = run(["simulate-urn", "--steps", "50", "--seed", "9", "--out", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()
    assert read_manifest(m1)["outputs"][0]["sha256"] == read_manifest(m2)["outputs"][0]["sha256"]


def test_validation_failure_names_flag(tmp_path, capsys):
    code = main(["simulate-urn", "--beta", "1.5", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--beta" in err


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["simulate-urn", "--steps", "5", "--out", str(blocker / "sub" / "y.csv")])
    assert code == 3


def test_env_seed_used_when_flag_absent(tmp_path, capsys, monkeypatch):
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv("RPWF_SEED", "77")
    _, m1 = run(["simulate-urn", "--steps", "20", "--out", str(out1)], capsys)
    assert read_manifest(m1)["seed"] == 77
    _, m2 = run(["simulate-urn", "--steps", "20", "--seed", "5", "--out", str(out2)], capsys)
    assert read_manifest(m2)["seed"] == 5
    monkeypatch.delenv("RPWF_SEED")
    _, m3 = run(["simulate-urn", "--steps", "20", "--out", str(out3)], capsys)
    assert read_manifest(m3)["seed"] == 0


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('beta = 0.9\nsteps = 15\n# comment\nformat = "csv"\n')
    out1 = tmp_path / "a.csv"
    _, m1 = run(["simulate-urn", "--config", str(cfg), "--out", str(out1)], capsys)
    params = read_manifest(m1)["params"]
    assert params["beta"] == "0.9"
    assert params["steps"] == "15"
    out2 = tmp_path / "b.csv"
    _, m2 = run(["simulate-urn", "--config", str(cfg), "--beta", "0.5", "--out", str(out2)], capsys)
    assert read_manifest(m2)["params"]["beta"] == "0.5"


def test_simulate_urn_json_format(tmp_path, capsys):
    out = tmp_path / "traj.json"
    code, _ = run(["simulate-urn", "--steps", "8", "--format", "json", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["draws"]) == 8
    assert len(data["psi"]) == 9
    assert data["params"]["beta"] == 0.5


def test_simulate_wf_path_and_ensemble(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code, _ = run(
        ["simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01", "--seed", "3", "--out", str(out)], capsys
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,X_1,X_2"
    assert len(lines) == 12

    ens = tmp_path / "ens.json"
    code, _ = run(
        [
            "simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01", "--seed", "3",
            "--replicas", "64", "--out", str(ens),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(ens.read_text())
    assert data["n_paths"] == 64
    assert len(data["mean"]) == 2
    assert abs(sum(data["mean"]) - 1.0) < 1e-12


def test_manifest_does_not_depend_on_workers(tmp_path, capsys):
    out = tmp_path / "ens.json"
    argv = ["simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01", "--replicas", "8", "--out", str(out)]
    manifests = []
    for workers in (["--workers", "1"], ["--workers", "2"], []):  # the default is the machine's CPU count
        code, _ = run(argv + workers, capsys)
        assert code == 0
        manifests.append((tmp_path / "ens.json.manifest.json").read_bytes())
    assert manifests[0] == manifests[1] == manifests[2]
    assert "workers" not in json.loads(manifests[0])["params"]


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_simulate_wf_rejects_replicas_below_one(tmp_path, capsys, replicas):
    out = tmp_path / "wf.csv"
    code = main(["simulate-wf", "--t-max", "0.1", "--dt", "0.01", "--replicas", replicas, "--out", str(out)])
    assert code == 2
    assert "--replicas" in capsys.readouterr().err
    assert not out.exists()


def test_density_recessive_regime(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _ = run(["density", "--b", "0.4", "--p", "0.5,0.5", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["value"] > 0.0


def test_density_long_time_equals_stationary(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _ = run(
        ["density", "--b", "1,1", "--y0", "0.3", "--y", "0.6", "--t", "50", "--max-degree", "30", "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    from rpwf.polynomials import GammaWeights
    from rpwf.spectral import dirichlet_density
    from rpwf.wright_fisher import WfParams

    stat = dirichlet_density(GammaWeights.from_wf(WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))), [0.6])
    assert data["value"] == pytest.approx(stat, abs=1e-6)
    assert data["n_terms"] == 31


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--y", "nan"], "--y"),
        (["--y", "nan,0.5"], "--y"),
        (["--y0", "nan"], "--y0"),
        (["--t", "inf"], "--t"),
        (["--t", "nan"], "--t"),
    ],
)
def test_density_rejects_non_finite_input(tmp_path, capsys, extra, flag):
    # --y nan and --t inf exited 0 and wrote "value": NaN
    out = tmp_path / "d.json"
    code = main(["density", "--b", "1,1", "--y0", "0.3", "--out", str(out)] + extra)
    assert code == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_density_accepts_full_coordinates(tmp_path, capsys):
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    base = ["density", "--b", "1,1", "--t", "1.0"]
    run(base + ["--y0", "0.3", "--y", "0.6", "--out", str(out1)], capsys)
    run(base + ["--y0", "0.3,0.7", "--y", "0.6,0.4", "--out", str(out2)], capsys)
    assert json.loads(out1.read_text())["value"] == json.loads(out2.read_text())["value"]


def test_boundary_reports_dominant_color(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, _ = run(["boundary", "--b", "0.9,0.1", "--alpha", "1.0", "--j", "1", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dominant_colors"] == [1]
    assert data["boundary_at_0"] == "entrance"
    assert data["recessive"] is False


def test_hit_prob_output(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _ = run(
        ["hit-prob", "--a0", "0.4", "--a1", "0.4", "--a", "0.25", "--b-pt", "0.75", "--z0", "0.5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["u"] == pytest.approx(0.5, abs=1e-10)
    assert data["mean_exit_time"] > 0


def test_hit_prob_overflow_exits_2_naming_the_coefficient(tmp_path, capsys):
    # the scale integral overflows at a0 = a1 = 250 on (1/4, 3/4); this wrote nan with exit 0
    out = tmp_path / "h.json"
    code = main(["hit-prob", "--a0", "250", "--a1", "250", "--a", "0.25", "--b-pt", "0.75", "--z0", "0.5", "--out", str(out)])
    assert code == 2
    assert "--a0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--a0", "-1"], "--a0"),
        (["--a1", "-1"], "--a1"),  # named --a0
        (["--a0", "nan"], "--a0"),  # failed later as an overflowing scale integral naming --a1
        (["--a1", "inf"], "--a1"),
        (["--a", "nan"], "--a"),
        (["--b-pt", "1.5"], "--b-pt"),  # named --a
        (["--b-pt", "0.1"], "--b-pt"),
    ],
)
def test_hit_prob_names_the_bad_flag(tmp_path, capsys, extra, flag):
    out = tmp_path / "h.json"
    code = main(["hit-prob", "--a", "0.25", "--b-pt", "0.75", "--z0", "0.5", "--out", str(out)] + extra)
    assert code == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--t-max", "inf"], "--t-max"),  # crashed with OverflowError, exit 1
        (["--t-max", "nan"], "--t-max"),
        (["--dt", "inf"], "--dt"),  # exited 0 with a zero-step path
        (["--dt", "inf", "--replicas", "3"], "--dt"),
    ],
)
def test_simulate_wf_rejects_non_finite_times(tmp_path, capsys, extra, flag):
    out = tmp_path / "wf.csv"
    code = main(["simulate-wf", "--b", "1,1", "--out", str(out)] + extra)
    assert code == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_converge_rejects_one_replica(tmp_path, capsys):
    # one replica exited 0 with RuntimeWarnings and a NaN stderr read as 1.0
    out = tmp_path / "conv.json"
    code = main(["converge", "--b", "1,1", "--betas", "0.5", "--times", "0.1", "--replicas", "1", "--out", str(out)])
    assert code == 2
    assert "error: --replicas:" in capsys.readouterr().err
    assert not out.exists()


def test_converge_writes_report_and_samples(tmp_path, capsys):
    out = tmp_path / "conv.json"
    code, _ = run(
        [
            "converge", "--b", "1,1", "--betas", "0.8", "--times", "0.25", "--replicas", "80",
            "--dt", "0.002", "--seed", "2", "--workers", "1", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["betas"] == [0.8]
    sample_file = tmp_path / "conv.beta0.8_t0.25.csv"
    assert sample_file.exists()
    lines = sample_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 80


def test_converge_rejects_too_many_urn_steps_naming_times(tmp_path, capsys):
    # beta = 0.9999 at t = 10 needs 1e9 urn steps, over the 2e7 cap; this named --steps, not a converge flag
    out = tmp_path / "conv.json"
    code = main(["converge", "--betas", "0.9999", "--times", "10", "--replicas", "10", "--out", str(out)])
    assert code == 2
    assert "--times" in capsys.readouterr().err
    assert not out.exists()


def test_converge_worker_count_invariance(tmp_path, capsys):
    outs = []
    for w, name in ((1, "w1"), (3, "w3")):
        out = tmp_path / f"{name}.json"
        code, _ = run(
            [
                "converge", "--b", "1,1", "--betas", "0.8,0.9", "--times", "0.25", "--replicas", "90",
                "--dt", "0.002", "--seed", "6", "--workers", str(w), "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_stationary_test_structure(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _ = run(
        [
            "stationary-test", "--b", "1,1", "--beta", "0.9", "--t-long", "1.0",
            "--replicas", "100", "--seed", "4", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["tests"]) == 2
    assert {"component", "beta_params", "ks", "pass_5pct"} <= set(data["tests"][0])


def test_manifest_replay_reproduces_output(tmp_path, capsys):
    out = tmp_path / "first.csv"
    _, m = run(["simulate-urn", "--steps", "30", "--seed", "12", "--out", str(out)], capsys)
    manifest = read_manifest(m)
    replay_out = tmp_path / "second.csv"
    argv = ["simulate-urn"]
    for key, val in manifest["params"].items():
        if key == "out":
            val = str(replay_out)
        argv += [f"--{key}", val]
    code, m2 = run(argv, capsys)
    assert code == 0
    assert read_manifest(m2)["outputs"][0]["sha256"] == manifest["outputs"][0]["sha256"]


def test_manifest_written_next_to_output(tmp_path, capsys):
    out = tmp_path / "t.csv"
    run(["simulate-urn", "--steps", "5", "--out", str(out)], capsys)
    sidecar = tmp_path / "t.csv.manifest.json"
    assert sidecar.exists()
    assert json.loads(sidecar.read_text())["command"] == "simulate-urn"


def test_converge_smoke_budget(tmp_path, capsys):
    import time

    start = time.perf_counter()
    code, _ = run(
        ["converge", "--b", "1,1", "--betas", "0.9", "--times", "1.0", "--replicas", "200",
         "--seed", "3", "--out", str(tmp_path / "smoke.json")],
        capsys,
    )
    assert code == 0
    assert time.perf_counter() - start < 60.0
