"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted, so a red test is a failed criterion.
When ``RPWF_ACCEPTANCE_JSONL`` names a file, each criterion also appends
one JSON line to it: its name, whether it passed, its statistics, their
bounds, its seeds and its elapsed seconds.
"""

import json
import math
import os
import time
from fractions import Fraction as F

import numpy as np
import pytest

from rpwf.boundary import (
    BoundaryType,
    IntervalProblem,
    classify_boundary,
    group_to_1d,
    hitting_prob,
    mean_exit_time,
    stationary_beta_cdf,
)
from rpwf.cli import main as cli_main
from rpwf.polynomials import (
    GammaWeights,
    apply_generator,
    basis_jacobi,
    basis_monic,
    basis_rodrigues,
    inner_product,
    multi_indices,
)
from rpwf.quadrature import inner_product_quad, simplex_rule
from rpwf.rng import StreamKey, generator
from rpwf.scaling import Partition, ScaledFamilyParams, build_family_member, eps_delta, project_group
from rpwf.spectral import SpectralTransitionDensity, dirichlet_density, forward_equation_residual
from rpwf.stats import ConvergenceConfig, convergence_experiment, ks_one_sample, stationary_urn_samples
from rpwf.urn import (
    UrnParams,
    closed_form_B,
    increment_decomposition,
    new_urn,
    predictive_mean,
    simulate_urn,
    step,
)
from rpwf.wright_fisher import (
    OneDimWf,
    WfParams,
    marginal_first_passage,
    marginal_touch_flags,
    sigma_batch,
)

from helpers import random_simplex_points


def report(criterion: str, ok: bool, detail: str = "", statistic=None, bound=None, seed=None, elapsed=None):
    """Print the criterion's line, append its record to ``RPWF_ACCEPTANCE_JSONL`` if set, and assert ``ok``.

    ``bound`` maps a name of ``statistic``, or ``elapsed_s``, to the
    ``[relation, limit]`` it must meet, such as ``["<", 1e-12]``; a limit
    computed by the test, such as a KS critical value, is recorded as it
    was computed.
    """
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    path = os.environ.get("RPWF_ACCEPTANCE_JSONL")
    if path:
        record = {"name": criterion, "pass": bool(ok), "statistic": statistic, "bound": bound, "seed": seed, "elapsed_s": elapsed}
        with open(path, "a") as fh:
            fh.write(json.dumps(record, default=lambda v: v.item()) + "\n")  # numpy scalars as Python numbers
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_sigma_factorization():
    start = time.perf_counter()
    rng = generator(101, "acc-sigma")
    worst_fact, worst_col = 0.0, 0.0
    for k in range(2, 7):
        X = random_simplex_points(k, 1000, rng)
        S = sigma_batch(X)
        target = np.einsum("mi,ij->mij", X, np.eye(k)) - np.einsum("mi,mj->mij", X, X)
        worst_fact = max(worst_fact, np.abs(np.einsum("mij,mkj->mik", S, S) - target).max())
        worst_col = max(worst_col, np.abs(S.sum(axis=1)).max())
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: sigma factorization, 1000 points per k in 2..6",
        worst_fact < 1e-12 and worst_col < 1e-12 and elapsed < 1.0,
        f"factorization {worst_fact:.2e}, column sums {worst_col:.2e}, {elapsed:.2f}s",
        {"factorization": worst_fact, "column_sums": worst_col},
        {"factorization": ["<", 1e-12], "column_sums": ["<", 1e-12], "elapsed_s": ["<", 1.0]},
        seed=101,
        elapsed=elapsed,
    )


def test_criterion_02_urn_identities():
    start = time.perf_counter()
    n = 10_000
    # closed form vs recursion, 1e-9 relative at n = 1e4
    params = UrnParams(alpha=0.7, beta=0.9, b=np.array([1.0, 2.0]), B0=np.array([0.5, 1.5]))
    traj = simulate_urn(params, n, 7)
    state = new_urn(params)
    rng = StreamKey(7, "urn").generator()
    worst_id = 0.0
    for _ in range(n):
        psi = predictive_mean(params, state)
        nxt, outcome = step(params, state, rng)
        eps_n, delta_n, dM = increment_decomposition(params, state, outcome)
        resid = (predictive_mean(params, nxt) - psi) - (-eps_n * (psi - params.p) + delta_n * dM)
        worst_id = max(worst_id, np.abs(resid).max())
        state = nxt
    closed = closed_form_B(params, traj.draws, n)
    rel = np.max(np.abs(closed - state.B) / np.maximum(np.abs(state.B), 1e-300))
    # balanced members keep r* constant to 1e-12
    worst_const = 0.0
    for beta in (0.5, 0.9, 0.99):
        fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.0]), beta=beta)
        member = build_family_member(fp)
        st = new_urn(member)
        g = StreamKey(11, "acc-balanced").generator()
        r0 = st.r_star
        for _ in range(n):
            st, _ = step(member, st, g)
            worst_const = max(worst_const, abs(st.r_star - r0))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: urn identities (closed form, r* constancy, increment decomposition)",
        rel < 1e-9 and worst_const < 1e-12 and worst_id < 1e-12 and elapsed < 5.0,
        f"closed-form rel {rel:.2e}, r* drift {worst_const:.2e}, increment {worst_id:.2e}, {elapsed:.2f}s",
        {"closed_form_rel": rel, "r_star_drift": worst_const, "increment": worst_id},
        {"closed_form_rel": ["<", 1e-9], "r_star_drift": ["<", 1e-12], "increment": ["<", 1e-12], "elapsed_s": ["<", 5.0]},
        seed=[7, 11],
        elapsed=elapsed,
    )


def test_criterion_03_grouping_pathwise_identity():
    start = time.perf_counter()
    fp = ScaledFamilyParams(alpha=1.0, b=np.array([1.0, 1.5, 0.5, 2.0]), beta=0.9)
    traj = simulate_urn(build_family_member(fp), 10_000, 13)
    grouped = project_group(traj, Partition([[1, 3], [2, 4]]))
    eps, delta = eps_delta(fp.alpha, fp.b_scalar, fp.beta)
    psi = grouped.psi
    onehot = np.zeros((traj.n_steps, 2))
    onehot[np.arange(traj.n_steps), grouped.draws - 1] = 1.0
    resid = psi[1:] - psi[:-1] + eps * (psi[:-1] - grouped.params.p) - delta * (onehot - psi[:-1])
    worst = np.abs(resid).max()
    report(
        "criterion 3: k=4 grouping satisfies the 2-color recursion pathwise",
        worst < 1e-12,
        f"max residual {worst:.2e} over 1e4 steps",
        {"max_residual": worst},
        {"max_residual": ["<", 1e-12]},
        seed=13,
        elapsed=time.perf_counter() - start,
    )


def _rational_nu(n: int, rate: F) -> F:
    return F(n) * (n + 2 * rate - 1) / 2


def test_criterion_04_eigen_structure_and_orthogonality():
    start = time.perf_counter()
    cases = [
        (GammaWeights((F(1, 2), F(1, 2))), F(3, 2)),  # k=2, b/alpha = 3/2, p = (1/2, 1/2)
        (GammaWeights((F(0), F(0), F(1))), F(2)),  # k=3, b/alpha = 2, p = (1/4, 1/4, 1/2)
    ]
    for gw, rate in cases:
        assert sum(gw.gamma) + gw.k == 2 * rate
        for deg in range(4):
            lam = 2 * _rational_nu(deg, rate)
            for n in multi_indices(gw.nvars, deg):
                for build in (
                    lambda m: basis_jacobi(m, gw, normalized=False),
                    lambda m: basis_monic(m, gw),
                    lambda m: basis_rodrigues(m, gw),
                ):
                    f = build(n)
                    if not (apply_generator(f, gw) + lam * f).is_zero():
                        report("criterion 4: exact eigen identity", False, f"failed at {n}, gw={gw.gamma}")
    # Gram structure under quadrature
    worst_jac, worst_cross, worst_bi = 0.0, 0.0, 0.0
    for gw, _ in cases:
        idx = [n for d in range(4) for n in multi_indices(gw.nvars, d)]
        jac = [basis_jacobi(n, gw) for n in idx]
        G = np.array([[inner_product_quad(f, g, gw) for g in jac] for f in jac])
        worst_jac = max(worst_jac, np.abs(G - np.eye(len(idx))).max())
        mon = {n: basis_monic(n, gw) for n in idx}
        rod = {n: basis_rodrigues(n, gw) for n in idx}
        for n1 in idx:
            for n2 in idx:
                if sum(n1) != sum(n2):
                    worst_cross = max(worst_cross, abs(inner_product_quad(mon[n1], mon[n2], gw)))
                    worst_cross = max(worst_cross, abs(inner_product_quad(rod[n1], rod[n2], gw)))
                if n1 != n2:
                    worst_bi = max(worst_bi, abs(inner_product_quad(rod[n1], mon[n2], gw)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: eigen structure, Gram identity, biorthogonality (degrees <= 3, k in {2,3})",
        worst_jac < 1e-8 and worst_cross < 1e-8 and worst_bi < 1e-8 and elapsed < 30.0,
        f"jacobi gram {worst_jac:.2e}, cross-degree {worst_cross:.2e}, U/V biorth {worst_bi:.2e}, {elapsed:.1f}s",
        {"jacobi_gram": worst_jac, "cross_degree": worst_cross, "biorthogonality": worst_bi},
        {"jacobi_gram": ["<", 1e-8], "cross_degree": ["<", 1e-8], "biorthogonality": ["<", 1e-8], "elapsed_s": ["<", 30.0]},
        elapsed=elapsed,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "within-degree Gram diagonality of the monic/Rodrigues families is "
        "mathematically false: the degree-1 monic elements have covariance "
        "-1/36 under the uniform triangle weight, and mutual orthogonality "
        "of both families would force them to coincide (they are "
        "biorthogonal instead); see the Jacobi family for the orthonormal "
        "basis with a fully diagonal Gram"
    ),
)
def test_criterion_04_within_degree_gram_of_monic_family():
    gw = GammaWeights((F(0), F(0), F(0)))
    v = abs(float(inner_product(basis_monic((1, 0), gw), basis_monic((0, 1), gw), gw)))
    assert v < 1e-8  # provably 1/36


def test_criterion_05_transition_density():
    start = time.perf_counter()
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))  # 2 b / alpha = 2
    S = SpectralTransitionDensity(params, 30)
    gw = GammaWeights.from_wf(params)
    pts, w = simplex_rule(gw, 60)
    stat = np.array([dirichlet_density(gw, y) for y in pts])
    worst_int = 0.0
    for t in (0.5, 1.0, 2.0):
        vals = np.array([S([0.3], y, t) for y in pts])
        worst_int = max(worst_int, abs(float(w @ (vals / stat)) - 1.0))
    rng = generator(55, "acc-rev")
    worst_rev = 0.0
    for _ in range(20):
        y0, y = rng.random(2) * 0.8 + 0.1
        lhs = dirichlet_density(gw, [y0]) * S([y0], [y], 1.0)
        rhs = dirichlet_density(gw, [y]) * S([y], [y0], 1.0)
        worst_rev = max(worst_rev, abs(lhs - rhs))
    worst_stat = 0.0
    for y in (0.2, 0.5, 0.8):
        worst_stat = max(worst_stat, abs(S([0.3], [y], 50.0) - dirichlet_density(gw, [y])))
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: spectral transition density (k=2, 2b/alpha=2, degree 30)",
        worst_int < 1e-4 and worst_rev < 1e-8 and worst_stat < 1e-8 and elapsed < 10.0,
        f"integral {worst_int:.2e}, reversibility {worst_rev:.2e}, t=50 {worst_stat:.2e}, {elapsed:.1f}s",
        {"integral": worst_int, "reversibility": worst_rev, "stationary_t50": worst_stat},
        {"integral": ["<", 1e-4], "reversibility": ["<", 1e-8], "stationary_t50": ["<", 1e-8], "elapsed_s": ["<", 10.0]},
        seed=55,
        elapsed=elapsed,
    )


def test_criterion_06_forward_equation_residual():
    start = time.perf_counter()
    grid = np.linspace(0.1, 0.9, 50)[:, None]
    poly = WfParams(b=2.0, alpha=1.0, p=np.array([0.5, 0.5]))  # gamma = (1, 1)
    gw_poly = GammaWeights.from_wf(poly)
    r1 = np.abs(forward_equation_residual(lambda y, t: dirichlet_density(gw_poly, y), grid, 1.0, poly)).max()
    frac = WfParams(b=1.0, alpha=1.0, p=np.array([0.6, 0.4]))  # gamma = (0.2, -0.2)
    gw_frac = GammaWeights.from_wf(frac)
    r2 = np.abs(
        forward_equation_residual(lambda y, t: dirichlet_density(gw_frac, y), grid, 1.0, frac, h=2e-3)
    ).max()
    report(
        "criterion 6: stationary density satisfies the forward equation (50-point grid)",
        r1 < 1e-6 and r2 < 1e-6,
        f"polynomial weight {r1:.2e}, fractional weight {r2:.2e}",
        {"polynomial_weight": r1, "fractional_weight": r2},
        {"polynomial_weight": ["<", 1e-6], "fractional_weight": ["<", 1e-6]},
        elapsed=time.perf_counter() - start,
    )


def test_criterion_07_boundary_and_hitting():
    start = time.perf_counter()
    table_ok = (
        classify_boundary(0.0) is BoundaryType.EXIT
        and classify_boundary(0.25) is BoundaryType.REGULAR
        and classify_boundary(0.49999) is BoundaryType.REGULAR
        and classify_boundary(0.5) is BoundaryType.ENTRANCE
        and classify_boundary(2.0) is BoundaryType.ENTRANCE
    )
    sets = [
        (0.3, 0.7, 0.2, 0.8, 0.5),
        (0.5, 0.5, 0.25, 0.75, 0.4),
        (0.8, 0.4, 0.3, 0.9, 0.6),
    ]
    worst_u_sig = 0.0
    for i, (a0, a1, a, b, z0) in enumerate(sets):
        od = OneDimWf(a0=a0, a1=a1)
        ip = IntervalProblem(od=od, a=a, b_pt=b)
        tau, hit = marginal_first_passage(od, z0, a, b, dt=1e-4, n_paths=10_000, seed=100 + i, t_cap=100.0)
        assert not np.isnan(tau).any()
        u, u_mc = hitting_prob(ip, z0), hit.mean()
        se = math.sqrt(u_mc * (1.0 - u_mc) / hit.size)
        worst_u_sig = max(worst_u_sig, abs(u - u_mc) / se)
    # exit-time oracle at refined dt: the discrete-monitoring bias at dt=1e-4
    # measurably exceeds 3 standard errors of a 1e4-path estimate
    worst_t_sig = 0.0
    for i, (a0, a1, a, b, z0) in enumerate(sets):
        od = OneDimWf(a0=a0, a1=a1)
        ip = IntervalProblem(od=od, a=a, b_pt=b)
        tau, _ = marginal_first_passage(od, z0, a, b, dt=1e-5, n_paths=3000, seed=200 + i, t_cap=100.0)
        w = mean_exit_time(ip, z0)
        se_t = tau.std(ddof=1) / math.sqrt(tau.size)
        worst_t_sig = max(worst_t_sig, abs(w - tau.mean()) / se_t)
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: boundary table, hitting probabilities and mean exit times vs Monte Carlo",
        table_ok and worst_u_sig < 3.0 and worst_t_sig < 3.0 and elapsed < 300.0,
        f"hit-prob worst {worst_u_sig:.2f} se, exit-time worst {worst_t_sig:.2f} se, {elapsed:.0f}s",
        {"boundary_table": table_ok, "hit_prob_se": worst_u_sig, "exit_time_se": worst_t_sig},
        {"boundary_table": ["==", True], "hit_prob_se": ["<", 3.0], "exit_time_se": ["<", 3.0], "elapsed_s": ["<", 300.0]},
        seed=[100, 101, 102, 200, 201, 202],
        elapsed=elapsed,
    )


def test_criterion_08_convergence_exhibit():
    start = time.perf_counter()
    wf = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))
    rep = convergence_experiment(
        ConvergenceConfig(wf=wf, betas=(0.5, 0.99), times=(1.0,), n_replicas=2000, dt=1e-3, seed=1)
    )
    arr = np.asarray(rep.distances)
    ks_high_beta = arr[1, 0].max()
    below_crit = ks_high_beta < rep.critical[0.01]
    wins = 0
    for s in range(10):
        r = convergence_experiment(
            ConvergenceConfig(wf=wf, betas=(0.5, 0.99), times=(1.0,), n_replicas=2000, dt=1e-3, seed=100 + s)
        )
        a = np.asarray(r.distances)
        wins += a[1].mean() <= a[0].mean()
    elapsed = time.perf_counter() - start
    report(
        "criterion 8: weak-convergence exhibit (beta=0.99, M=2000, t=1)",
        below_crit and wins >= 8 and elapsed < 600.0,
        f"KS {ks_high_beta:.4f} vs crit {rep.critical[0.01]:.4f}, trend {wins}/10, {elapsed:.0f}s",
        {"ks_beta_0.99": ks_high_beta, "trend_wins": wins},
        {"ks_beta_0.99": ["<", rep.critical[0.01]], "trend_wins": [">=", 8], "elapsed_s": ["<", 600.0]},
        seed=[1, *range(100, 110)],
        elapsed=elapsed,
    )


def test_criterion_09_stationary_exhibit():
    start = time.perf_counter()
    results = []
    for p1 in (0.5, 0.7):
        wf = WfParams(b=1.0, alpha=1.0, p=np.array([p1, 1.0 - p1]))
        samples = stationary_urn_samples(wf, beta=0.99, t_long=12.0, n_replicas=1000, seed=42)
        rep = ks_one_sample(samples[:, 0], stationary_beta_cdf(group_to_1d(wf, [1])))
        results.append((p1, rep.D, rep.critical[0.05], rep.passes(0.05)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 9: long-run urn samples match the Dirichlet/Beta stationary law",
        all(ok for _, _, _, ok in results),
        "; ".join(f"p={p}: D={d:.4f} vs {c:.4f}" for p, d, c, ok in results) + f", {elapsed:.0f}s",
        {f"ks_p{p}": d for p, d, _, _ in results},
        {f"ks_p{p}": ["<", c] for p, _, c, _ in results},
        seed=42,
        elapsed=elapsed,
    )


def test_criterion_10_recessive_dominant_behavior():
    start = time.perf_counter()
    entrance = marginal_touch_flags(OneDimWf(a0=2.0, a1=2.0), z0=0.5, level=1e-3, t_max=50.0, dt=1e-3, n_paths=1000, seed=7)
    regular = marginal_touch_flags(OneDimWf(a0=0.25, a1=0.75), z0=0.5, level=1e-3, t_max=50.0, dt=1e-3, n_paths=1000, seed=8)
    elapsed = time.perf_counter() - start
    report(
        "criterion 10: entrance boundary untouched, regular boundary visited",
        entrance.sum() == 0 and regular.mean() >= 0.10 and elapsed < 300.0,
        f"entrance {int(entrance.sum())}/1000, regular {regular.mean():.1%}, {elapsed:.0f}s",
        {"entrance_touches": entrance.sum(), "regular_touch_frac": regular.mean()},
        {"entrance_touches": ["==", 0], "regular_touch_frac": [">=", 0.10], "elapsed_s": ["<", 300.0]},
        seed=[7, 8],
        elapsed=elapsed,
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    runs = {
        "simulate-urn": ["--steps", "20", "--seed", "5"],
        "simulate-wf": ["--b", "1,1", "--t-max", "0.05", "--dt", "0.005", "--seed", "5"],
        "density": ["--b", "1,1", "--y0", "0.3", "--y", "0.6", "--t", "1.0", "--seed", "5"],
        "boundary": ["--b", "0.9,0.1", "--j", "1", "--seed", "5"],
        "hit-prob": ["--a0", "0.4", "--a1", "0.6", "--a", "0.25", "--b-pt", "0.75", "--z0", "0.5", "--seed", "5"],
        "stationary-test": ["--b", "1,1", "--beta", "0.9", "--t-long", "0.5", "--replicas", "50", "--seed", "5"],
        "converge": ["--b", "1,1", "--betas", "0.8", "--times", "0.25", "--replicas", "60", "--dt", "0.002", "--seed", "5"],
    }
    all_ok = True
    details = []
    for cmd, args in runs.items():
        digests = []
        for rep in ("x", "y"):
            out = tmp_path / f"{cmd}-{rep}.out"
            code = cli_main([cmd, *args, "--workers", "1", "--out", str(out)])
            capsys.readouterr()
            assert code == 0
            digests.append(out.read_bytes())
        same = digests[0] == digests[1]
        all_ok = all_ok and same
        details.append(f"{cmd}:{'ok' if same else 'DIFFERS'}")
    # worker-count invariance for the parallel command
    w_digests = []
    for w, rep in (("1", "a"), ("4", "b")):
        out = tmp_path / f"conv-workers-{rep}.out"
        code = cli_main(
            ["converge", "--b", "1,1", "--betas", "0.8", "--times", "0.25", "--replicas", "60",
             "--dt", "0.002", "--seed", "5", "--workers", w, "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        w_digests.append(out.read_bytes())
    workers_ok = w_digests[0] == w_digests[1]
    report(
        "criterion 11: CLI byte-determinism under fixed seed, worker-count independent",
        all_ok and workers_ok,
        ", ".join(details) + f", workers:{'ok' if workers_ok else 'DIFFERS'}",
        {"byte_identical": all_ok, "worker_invariant": workers_ok},
        {"byte_identical": ["==", True], "worker_invariant": ["==", True]},
        seed=5,
        elapsed=time.perf_counter() - start,
    )
