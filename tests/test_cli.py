import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpwf.boundary import group_to_1d
from rpwf.cli import _COMMANDS, main
from rpwf.wright_fisher import WfParams


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
    assert capsys.readouterr().err.startswith("i/o error:")
    assert list(tmp_path.iterdir()) == [blocker]  # no output and no manifest


def test_manifest_write_failure_exits_3(tmp_path, capsys, monkeypatch):
    from rpwf import io as rio

    write_bytes = rio.write_bytes

    def failing_manifest(path, data):
        if str(path).endswith(".manifest.json"):
            raise PermissionError(f"cannot write {path}")
        return write_bytes(path, data)

    monkeypatch.setattr(rio, "write_bytes", failing_manifest)
    code, out = run(["simulate-urn", "--steps", "5", "--out", str(tmp_path / "y.csv")], capsys)
    assert code == 3
    assert out == ""
    assert not (tmp_path / "y.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate-urn", "--no-such-flag", "1"], None),
        (["simulate-urn", "--config", "missing.toml"], "--config"),
        (["simulate-urn", "--config", "bad.toml"], "--config"),
    ],
)
def test_unknown_flag_and_bad_config_exit_2(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.toml").write_text("steps = 5\nno equals sign here\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag is None or f"error: {flag}:" in err
    assert not list(tmp_path.glob("*.manifest.json"))


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


def test_simulate_wf_json_path_holds_the_csv_values(tmp_path, capsys):
    argv = ["simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01", "--seed", "3"]
    code, _ = run(argv + ["--out", str(tmp_path / "path.csv")], capsys)
    assert code == 0
    code, out = run(argv + ["--format", "json", "--out", str(tmp_path / "path.json")], capsys)
    assert code == 0
    raw = (tmp_path / "path.json").read_bytes()
    data = json.loads(raw)
    rows = [line.split(",") for line in (tmp_path / "path.csv").read_text().strip().splitlines()[1:]]
    assert data["t"] == [float(row[0]) for row in rows]
    assert data["X"] == [[float(v) for v in row[1:]] for row in rows]
    assert data["seed"] == {"seed": 3, "label": "cli-wf", "index": 0}
    (entry,) = read_manifest(out)["outputs"]
    assert entry["sha256"] == hashlib.sha256(raw).hexdigest()


def test_manifest_does_not_depend_on_workers(tmp_path, capsys):
    out = tmp_path / "ens.json"
    argv = ["simulate-wf", "--b", "1,1", "--t-max", "0.1", "--dt", "0.01", "--replicas", "8", "--out", str(out)]
    manifests = []
    for workers in (["--workers", "1"], ["--workers", "2"], []):  # the default resolves in rpwf.rng
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


@pytest.mark.parametrize(
    "command, extra, flag",
    [
        ("simulate-wf", ["--b", "1,1", "--alpha", "inf"], "--alpha"),  # exited 0
        ("boundary", ["--b", "1,1", "--alpha", "inf"], "--alpha"),  # exited 0
        ("density", ["--b", "1,inf"], "--b"),  # warned in the divide, then named --p
        ("density", ["--b", "1e308,1e308"], "--b"),  # the total overflows
        ("density", ["--b", "1,-1"], "--b"),  # named --p
        # k = 6 named --k, a flag that no subcommand has
        ("density", ["--b", "1,1,1,1,1,1", "--y0", "0.1,0.1,0.1,0.1,0.1", "--y", "0.2,0.1,0.1,0.1,0.1"], "--b"),
        (
            "density",
            ["--b", "1", "--p", "0.2,0.2,0.2,0.2,0.1,0.1", "--y0", "0.1,0.1,0.1,0.1,0.1", "--y", "0.2,0.1,0.1,0.1,0.1"],
            "--p",
        ),
        ("density", ["--b", "1,1,1", "--p", "0.5,0.5", "--y0", "0.5", "--y", "0.4"], "--p"),  # exited 0 at k = 2
        ("density", ["--b", "1e-300,1"], "--b"),  # gamma_1 = 2 (b/alpha) p_1 - 1 rounds to -1: named --gamma
        ("density", ["--alpha", "inf"], "--alpha"),  # named --gamma
        ("density", ["--b", "1,1", "--alpha", "1e-300"], "--alpha"),  # exited 0 with "value": NaN
        ("density", ["--b", "0.2,0.2", "--y", "0"], "--y"),  # the density is +inf on that face
        # pi_gamma exceeds the float range near a corner: math.exp raised OverflowError, exit 1
        ("density", ["--b", "0.25,0.25,0.25,0.25", "--y0", "0.2,0.2,0.2", "--y", "1e-300,1e-300,1e-300"], "--y"),
        ("density", ["--y", "1e308,1e308"], "--y"),  # the simplex sum overflowed with a RuntimeWarning
        ("density", ["--b", "1,1,1", "--y0", "0.3,0.3", "--y", "1e308,1e308"], "--y"),  # the reduced sum, likewise
        ("simulate-urn", ["--alpha", "inf"], "--alpha"),  # exited 0 with NaN psi
        ("simulate-urn", ["--b0", "nan,1"], "--b0"),  # likewise
        ("simulate-urn", ["--b", "1,inf"], "--b"),  # "invalid value encountered in divide", exit 1
        ("simulate-urn", ["--b", "1e308,1e308"], "--b"),  # the total overflows
        ("simulate-urn", ["--alpha", "1e308", "--beta", "0.5", "--steps", "10"], "--alpha"),  # the ball total overflows
        ("simulate-urn", ["--steps", "1000000000000"], "--steps"),  # MemoryError, exit 1
        ("simulate-wf", ["--t-max", "1e300"], "--t-max"),  # "Maximum allowed dimension exceeded", exit 1
        ("simulate-wf", ["--t-max", "1e300", "--dt", "1e-10"], "--t-max"),  # the step count is inf
        ("boundary", ["--b", "1,1", "--alpha", "1e-320"], "--alpha"),  # b/alpha is inf: named --a0
        # alpha/(1-beta) overflows: "invalid value encountered in divide", exit 1
        ("converge", ["--alpha", "1e308", "--betas", "0.5", "--times", "0.1", "--replicas", "3", "--workers", "1"], "--alpha"),
        ("stationary-test", ["--alpha", "1e308", "--beta", "0.5", "--t-long", "0.1", "--replicas", "3", "--workers", "1"], "--alpha"),
        # b/alpha is inf: the report held NaN z-scores (found by the fuzz test below)
        ("converge", ["--b", "1,1e308", "--alpha", "0.5", "--betas", "0", "--times", "0", "--replicas", "2"], "--alpha"),
        # 1e299 Euler-Maruyama steps: ran without end
        ("converge", ["--dt", "1e-300", "--betas", "0.5", "--times", "0.1", "--replicas", "2"], "--dt"),
        ("simulate-wf", ["--replicas", "2", "--t-max", "1e10"], "--t-max"),  # 1e13 steps: ran without end
    ],
)
def test_model_inputs_name_a_flag_of_the_command(tmp_path, capsys, command, extra, flag):
    out = tmp_path / "o.json"
    code = main([command, "--out", str(out)] + extra)
    assert code == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_density_at_a_huge_time_is_the_stationary_density(tmp_path, capsys):
    # -nu t overflowed to -inf with a RuntimeWarning; exp of it is the right 0
    out = tmp_path / "d.json"
    code, _ = run(["density", "--b", "1,1", "--y0", "0.3", "--y", "0.6", "--t", "1e308", "--out", str(out)], capsys)
    assert code == 0
    from rpwf.polynomials import GammaWeights
    from rpwf.spectral import dirichlet_density
    from rpwf.wright_fisher import WfParams

    stat = dirichlet_density(GammaWeights.from_wf(WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))), [0.6])
    assert json.loads(out.read_text())["value"] == stat


def test_density_accepts_full_coordinates(tmp_path, capsys):
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    base = ["density", "--b", "1,1", "--t", "1.0"]
    run(base + ["--y0", "0.3", "--y", "0.6", "--out", str(out1)], capsys)
    run(base + ["--y0", "0.3,0.7", "--y", "0.6,0.4", "--out", str(out2)], capsys)
    assert json.loads(out1.read_text())["value"] == json.loads(out2.read_text())["value"]
    # a full point within the simplex tolerance has a head within it too: the head was rejected
    # with "--y: array([0.6, 0.4]) lies outside the reduced simplex" and exit 2
    out3 = tmp_path / "d3.json"
    code, _ = run(["density", "--b", "1,1,1", "--y0", "0.3,0.3,0.4", "--y", "0.6,0.40000000005,0", "--out", str(out3)], capsys)
    assert code == 0
    assert math.isfinite(json.loads(out3.read_text())["value"])
    # a last component of -1e-10 lets the head sum to 1 + 1.5e-10, past the reduced simplex's 1 + 1e-10
    out4 = tmp_path / "d4.json"
    code, _ = run(["density", "--b", "1,1,1", "--y0", "0.3,0.3,0.4", "--y=0.6,0.40000000015,-1e-10", "--out", str(out4)], capsys)
    assert code == 0
    assert math.isfinite(json.loads(out4.read_text())["value"])


def test_boundary_reports_dominant_color(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, _ = run(["boundary", "--b", "0.9,0.1", "--alpha", "1.0", "--j", "1", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dominant_colors"] == [1]
    assert data["boundary_at_0"] == "entrance"
    assert data["recessive"] is False


def test_boundary_p_group_counts_a_repeated_color_once(tmp_path, capsys):
    # --j 1,1 reported p_group = 2 p_1 next to a0 = (b/alpha) p_1
    out = tmp_path / "b.json"
    code, _ = run(["boundary", "--b", "1,2,3", "--j", "1,1", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["p_group"] == pytest.approx(1 / 6) and data["a0"] == pytest.approx(1.0)


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


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--betas", "1.0"], "--betas"),  # ZeroDivisionError in the urn step count, exit 1
        (["--betas", "0.5,-0.5"], "--betas"),  # named --beta, which converge does not have
        (["--times", "nan"], "--times"),  # named --t-max, which converge does not have
        (["--times", "0.1,inf"], "--times"),
        (["--times", "nan,0.1"], "--times"),  # NaN sorts anywhere; named --checkpoints
        (["--x0", "0.5,0.5,0"], "--x0"),  # three coordinates for k = 2: a broadcast ValueError, exit 1
        (["--x0", "1,0"], "--x0"),  # on a face: the Euler-Maruyama ensemble ran, then --b0 was named
    ],
)
def test_converge_names_the_bad_flag(tmp_path, capsys, extra, flag):
    out = tmp_path / "conv.json"
    args = {"--betas": "0.5", "--times": "0.1", "--replicas": "5"}
    args.update(zip(extra[::2], extra[1::2]))
    code = main(["converge", "--b", "1,1", "--out", str(out)] + [v for kv in args.items() for v in kv])
    assert code == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("replicas", ["1", "3"])
def test_simulate_wf_rejects_x0_of_another_k(tmp_path, capsys, replicas):
    # k = 2 from --b with a three-coordinate x0 exited 1 with a broadcast ValueError
    out = tmp_path / "wf.json"
    code = main(["simulate-wf", "--b", "1,1", "--x0", "0.5,0.5,0", "--replicas", replicas, "--out", str(out)])
    assert code == 2
    assert "error: --x0:" in capsys.readouterr().err
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


def test_converge_negative_seed_is_its_seed_mod_2_64(tmp_path, capsys):
    # at k = 3 the grouped marginal J is drawn from the seed mod 2^64, as every stream is;
    # drawn from the raw seed, a negative one exited 1 with "ValueError: expected non-negative integer"
    runs = []
    for seed in ("-5", str(2**64 - 5)):
        out = tmp_path / seed / "c.json"
        out.parent.mkdir()
        argv = ["converge", "--b", "1,1,2", "--betas", "0.6", "--times", "0.1", "--replicas", "4", "--dt", "0.01"]
        code, stdout = run(argv + ["--seed", seed, "--workers", "1", "--out", str(out)], capsys)
        assert code == 0
        manifest = read_manifest(stdout)
        assert manifest["seed"] == int(seed)
        runs.append(([e["sha256"] for e in manifest["outputs"]], sorted((p.name, p.read_bytes()) for p in out.parent.iterdir() if "manifest" not in p.name)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 2  # the report and one samples CSV


def test_stationary_test_structure(tmp_path, capsys):
    # each component reports the Beta(2 a0, 2 a1) law its KS test used: at b = (1, 2), alpha = 0.7
    # a second formula for it, 2 (b/alpha) (1 - p_i), read 2.857142857142857 for 2.8571428571428577
    for b, alpha in (([1.0, 1.0], 1.0), ([1.0, 2.0], 0.7)):
        out = tmp_path / "s.json"
        code, _ = run(
            [
                "stationary-test", "--b", ",".join(map(repr, b)), "--alpha", repr(alpha), "--beta", "0.9",
                "--t-long", "1.0", "--replicas", "100", "--seed", "4", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["tests"]) == 2
        assert {"component", "beta_params", "ks", "pass_5pct"} <= set(data["tests"][0])
        params = WfParams(b=sum(b), alpha=alpha, p=np.array(b) / sum(b))
        for test in data["tests"]:
            od = group_to_1d(params, [test["component"]])
            assert test["beta_params"] == [2.0 * od.a0, 2.0 * od.a1]


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


# the odd fuzz values: boundary (0, 1, 1e-300), nan, +-inf, negative and huge
_ODD = st.sampled_from([0.0, 1.0, 1e-300, math.nan, math.inf, -math.inf, -0.5, 1e300, 1e308])


def _simplex(k):
    return st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k).map(lambda w: [v / sum(w) for v in w])


def _spoiled(valid):
    """A list of the wrong length, or a valid list with one entry replaced by an odd value."""
    replaced = valid.flatmap(lambda v: st.tuples(st.just(v), st.integers(0, len(v) - 1), _ODD))
    return st.lists(st.floats(0.0, 3.0) | _ODD, min_size=1, max_size=6) | replaced.map(
        lambda c: c[0][: c[1]] + [c[2]] + c[0][c[1] + 1 :]
    )


@st.composite
def density_argv(draw):
    """Each flag of ``density`` absent, valid (most often) or odd."""

    def flag(valid, odd):
        return draw(st.one_of(st.none(), valid, valid, valid, valid, odd))

    k = draw(st.integers(2, 6))
    b = flag(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k), _spoiled(_simplex(k)))
    k = 2 if b is None else k  # the default --b is 1,1
    point = _simplex(k).flatmap(lambda x: st.sampled_from([x, x[:-1]]))  # full or reduced coordinates
    values = {
        "b": b,
        "p": flag(_simplex(k), _spoiled(_simplex(k))),
        "alpha": flag(st.floats(0.05, 3.0), _ODD),
        "y0": flag(point, _spoiled(point)),
        "y": flag(point, _spoiled(point)),
        "t": flag(st.floats(0.01, 5.0), _ODD),
        "max-degree": flag(st.integers(0, 6), _ODD | st.integers(-2, 45)),
    }
    argv = ["density"]
    for name, value in values.items():
        if value is not None:
            # one token, --flag=value, so that argparse takes "-inf" as a value
            argv.append(f"--{name}=" + (",".join(repr(v) for v in value) if isinstance(value, list) else str(value)))
    return argv


def _floats(v):
    """Every float in a parsed JSON value."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        return [x for item in v for x in _floats(item)]
    return [v] if isinstance(v, float) else []


def _assert_finite(path):
    """Every number in an output file is finite."""
    text = path.read_text()
    if text.startswith("{"):  # some commands write JSON whatever --out is named
        numbers = _floats(json.loads(text))
    else:
        cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
        numbers = [float(c) for c in cells if c not in ("", "urn", "wf")]  # the first draw color is empty
    assert all(math.isfinite(v) for v in numbers), (path.name, text[:300])


def _fuzz(command, argv, out):
    """Exit 0 with finite outputs, or exit 2 naming a flag of ``command``."""
    err = io.StringIO()
    # capsys is per test, not per example: capture each call's stdout and stderr here
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(err):
        code = main(argv + ["--workers", "1", "--out", str(out)])
    if code == 0:
        for output in json.loads(stdout.getvalue())["outputs"]:
            _assert_finite(out.parent / Path(output["path"]).name)
        return
    assert code == 2, (argv, err.getvalue())
    flags = {f"--{opt.name}" for opt in _COMMANDS[command][0]}
    named = err.getvalue().split(":", 2)[1].strip()
    assert named in flags, (argv, err.getvalue())


@given(density_argv())
def test_density_fuzz_exits_0_with_finite_values_or_2_naming_its_flag(tmp_path_factory, argv):
    _fuzz("density", argv, tmp_path_factory.mktemp("fuzz") / "d.json")


# the other six subcommands, flag by flag: (valid, odd) strategies given k, the number of colors.
# Huge times and tiny step sizes are valid runs over the Euler-Maruyama step cap. The tiny step is
# the smallest subnormal: a drawn time t then takes 1 step or over 1e8 (hypothesis draws times
# just above 1e-300 often enough that a step of 1e-300 could give up to 1e8 steps that run).
_ODD_TIME = st.sampled_from([0.0, 1e-300, math.nan, math.inf, -math.inf, -0.5, 1e10, 1e300])
_ODD_STEP = st.sampled_from([0.0, 5e-324, math.nan, math.inf, -math.inf, -0.5, 1e300, 1e308])
_ODD_COUNT = st.sampled_from([-1, 0, 1.5, math.nan]) | _ODD


def _lists(elem, k):
    return st.lists(elem, min_size=k, max_size=k)


def _wf_flags(k):
    return {
        "alpha": (st.floats(0.05, 3.0), _ODD),
        "b": (_lists(st.floats(0.1, 3.0), k), _spoiled(_simplex(k))),
        "p": (_simplex(k), _spoiled(_simplex(k))),
    }


_FLAGS = {
    "simulate-urn": lambda k: {
        "alpha": (st.floats(0.05, 3.0), _ODD),
        "beta": (st.floats(0.0, 1.0), _ODD),
        "b": (_lists(st.floats(0.1, 3.0), k), _spoiled(_lists(st.floats(0.1, 3.0), k))),
        "b0": (_lists(st.floats(0.0, 3.0), k), _spoiled(_lists(st.floats(0.0, 3.0), k))),
        "steps": (st.integers(0, 50), _ODD_COUNT | st.just(10**12)),
    },
    "simulate-wf": lambda k: {
        **_wf_flags(k),
        "x0": (_simplex(k), _spoiled(_simplex(k))),
        "t-max": (st.floats(0.0, 0.1), _ODD_TIME),
        "dt": (st.floats(0.01, 0.1), _ODD_STEP),
        "replicas": (st.integers(1, 3), _ODD_COUNT),
    },
    "boundary": lambda k: {
        **_wf_flags(k),
        "j": (st.lists(st.integers(1, k), min_size=1, max_size=k - 1, unique=True), st.lists(st.integers(-1, k + 1), max_size=k + 1)),
    },
    "hit-prob": lambda k: {
        "a0": (st.floats(0.0, 3.0), _ODD),
        "a1": (st.floats(0.0, 3.0), _ODD),
        "a": (st.floats(0.05, 0.45), _ODD),
        "b-pt": (st.floats(0.55, 0.95), _ODD),
        "z0": (st.floats(0.05, 0.95), _ODD),
    },
    "converge": lambda k: {
        **_wf_flags(k),
        "x0": (_simplex(k), _spoiled(_simplex(k))),
        "betas": (st.lists(st.floats(0.0, 0.8), min_size=1, max_size=2), _spoiled(st.lists(st.floats(0.0, 0.8), min_size=1, max_size=2))),
        "times": (st.lists(st.floats(0.0, 0.3), min_size=1, max_size=2), _spoiled(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=2))),
        "replicas": (st.integers(2, 4), _ODD_COUNT),
        "dt": (st.floats(0.02, 0.1), _ODD_STEP),
    },
    "stationary-test": lambda k: {
        **_wf_flags(k),
        "beta": (st.floats(0.0, 0.8), _ODD),
        "t-long": (st.floats(0.0, 0.3), _ODD),
        "replicas": (st.integers(2, 5), _ODD_COUNT),
    },
}


_SIZES = {"steps", "t-max", "dt", "replicas", "betas", "times", "beta", "t-long"}


@st.composite
def command_argv(draw, command):
    """Each flag of ``command`` absent, valid (most often) or odd, plus a seed and a format."""
    k = draw(st.integers(2, 4))
    flags = _FLAGS[command](k)
    if k == 2 and "b" in flags and draw(st.booleans()):
        del flags["b"]  # the default --b is 1,1
    flags["seed"] = (st.integers(-5, 2**40), st.sampled_from(["nan", "1.5", "x"]))
    flags["format"] = (st.sampled_from(["csv", "json"]), st.sampled_from(["xml", ""]))
    argv = [command]
    for name, (valid, odd) in flags.items():
        # a size flag is always given: its default is a full-size run
        value = draw(st.one_of(*(() if name in _SIZES else (st.none(),)), valid, valid, valid, valid, odd))
        if value is not None:
            # one token, --flag=value, so that argparse takes "-inf" as a value
            argv.append(f"--{name}=" + (",".join(repr(v) for v in value) if isinstance(value, list) else str(value)))
    return argv


@pytest.mark.parametrize("command", list(_FLAGS))
def test_fuzz_exits_0_with_finite_outputs_or_2_naming_its_flag(tmp_path, command):
    @settings(max_examples=50)  # about 5 s for the six commands
    @given(command_argv(command))
    def fuzz(argv):
        # every example rewrites the outputs it names in its manifest, and only those are read
        _fuzz(command, argv, tmp_path / ("o.json" if "--format=json" in argv else "o.csv"))

    fuzz()


# sha256 of (exit code, stdout, stderr) of boundary, stationary-test, converge and density runs in
# an empty directory; stdout is the manifest, which holds the sha256 of every output.  Taken when
# main had one OSError handler per write, the seed default was set after the option loop and the
# CLI summed the group's p itself; the README density run's (its output's sha256 is 4f61f692...)
# when the spectral memo of y's terms still belonged to y0's basis row.
_CLI_SHA = {
    "boundary-k2": "5fbcb866a2e7bd418e3e76b1841187de5904c6a30f4a464639b543c47c274aea",
    "boundary-k3": "f8c48a3b9ba391bdc8c0df7655a00ac773e1692f0885a040dc06b27fc5c42495",
    "stationary-test": "ed81b6935f74a77c9f02425daf1ce4d5a5db529e2809c970a649b851b255964e",
    "converge": "d3a2a71a6ed509d9f54467c28106ccd0247b7a0972121da6b25c9b38bdc09836",
    "density": "2f7c991e459cea855fa7645efaf3ac8ff2653694de6dbef24e4f11093e1aab8e",
}
_CLI_RUNS = {
    "boundary-k2": ["boundary", "--b", "0.9,0.1", "--j", "1", "--out", "b2.json"],
    "boundary-k3": ["boundary", "--b", "0.2,0.3,0.5", "--alpha", "2", "--j", "3,1", "--seed", "4", "--out", "b3.json"],
    "stationary-test": [
        "stationary-test", "--b", "1,2", "--beta", "0.9", "--t-long", "1.0", "--replicas", "60", "--out", "s.json",
    ],
    "converge": [
        "converge", "--b", "1,1,2", "--betas", "0.6,0.9", "--times", "0.1,0.3", "--replicas", "40",
        "--dt", "0.01", "--seed", "3", "--workers", "1", "--out", "c.json",
    ],
    "density": ["density", "--b", "1,1", "--y0", "0.3", "--y", "0.6", "--t", "1.0", "--max-degree", "30", "--out", "density.json"],
}


def test_cli_outputs_keep_their_pinned_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RPWF_SEED", raising=False)
    got = {}
    for name, argv in _CLI_RUNS.items():
        code = main(argv)
        captured = capsys.readouterr()
        got[name] = hashlib.sha256(f"{code}\n{captured.out}\n{captured.err}".encode()).hexdigest()
    assert got == _CLI_SHA
