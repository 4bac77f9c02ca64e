"""The stick-breaking Gauss-Jacobi simplex rule and the package's import footprint."""

import ast
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import rpwf
from rpwf.errors import ValidationError
from rpwf.polynomials import GammaWeights, basis_jacobi, dirichlet_moment, inner_product, multi_indices
from rpwf.quadrature import gauss_jacobi_01, inner_product_quad, simplex_rule
from rpwf.rng import generator
from rpwf.wright_fisher import WfParams


def _gw(rate, p):
    return GammaWeights.from_wf(WfParams(b=rate, alpha=1.0, p=np.array(p)))


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# sha256 of the points and weights of the separate k = 2 and k = 3 Gauss-Jacobi
# branches that the single stick-breaking loop replaced (numpy 2.4, scipy 1.17)
PINNED = [
    (1.0, (0.5, 0.5), 40, "09a1974990af1ff6c0a48f18353e06e8d22097430b8ed99e55a1f199116a0748", "227c127a28c6f535253a2ae4c49f5f0efffd9f89bccc77488190c49bfba1f00a"),
    (0.4, (0.5, 0.5), 40, "4fd332d5824d98b4442eb781c23f0e950ec8bf7074268c474cb95fd57a9a0c39", "5face02b40aa5b10cc2623c3eabab41574c5d2c8263ecfa38ad7c7143b101751"),
    (1.0, (1 / 3, 1 / 3, 1 / 3), 9, "83dd48dca0bd5705dc65b512e3288d0f2e7f0cb1fc78956104034ba339062c3c", "80c8a4fa2a7c4af1b8f717b3219bef1e65697241951dcc1c48c206bbd557e106"),
    (0.4, (0.2, 0.3, 0.5), 10, "6fc7a18bc5dc77511d8f963ed5845f5ef0ce9c96fa6ecf21d9262bf0baa4e50d", "0245c8c29a67c2cdd504efc06e3f4742b981b77a21ba41e46c90a24ef1f9c9eb"),
    (3.0, (0.5, 0.3, 0.2), 12, "918190bcc4764e7d196a4b274357686c3b32fbeb95725ecd97801a8eca572aae", "f355d40a1d40573217e8af1b190d5162547fed18999055eb99ecb4dd57e0fbb2"),
]


@pytest.mark.parametrize("rate, p, level, pts_sha, w_sha", PINNED)
def test_k2_and_k3_rules_keep_their_bytes(rate, p, level, pts_sha, w_sha):
    pts, w = simplex_rule(_gw(rate, p), level)
    assert pts.shape == (level ** (len(p) - 1), len(p) - 1)
    assert (_sha(pts), _sha(w)) == (pts_sha, w_sha)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("rate", [0.15, 0.4, 1.0, 3.0])
def test_k4_and_k5_rules_are_exact_up_to_degree_2_level_minus_1(k, rate):
    # degree 0 is unit mass, which the scrambled-Sobol rule these replace missed by 3.7e-3 to 4.7e-2
    gw = _gw(rate, np.full(k, 1.0 / k))
    level = 3
    pts, w = simplex_rule(gw, level)
    assert pts.shape == (level ** (k - 1), k - 1)
    assert (w > 0).all() and (pts > 0).all() and (pts.sum(axis=1) < 1).all()
    assert abs(w.sum() - 1.0) <= 1e-13
    for degree in range(1, 2 * level):
        for e in multi_indices(gw.nvars, degree):
            assert float(w @ np.prod(pts**e, axis=1)) == pytest.approx(dirichlet_moment(gw, e), rel=1e-12)


@pytest.mark.parametrize("rate", [600.0, 1e4])
def test_k2_rule_keeps_unit_mass_and_the_mean_at_large_rate(rate):
    # at b/alpha = 600, 2^-(e0 + e1 + 1) underflowed to 0 and exp(-log C) overflowed: OverflowError
    pts, w = simplex_rule(_gw(rate, (0.5, 0.5)), 40)
    assert np.isfinite(w).all() and (w >= 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(float(w @ pts[:, 0]) - 0.5) <= 1e-12


def test_rule_keeps_unit_mass_from_small_to_large_rates():
    # the scaled weights served every b/alpha below about 500, and their mass error
    # grew with it: past 1e-14 from b/alpha near 6.6, 1.4e-12 at worst over this sweep
    rng = generator(5, "mass")
    built = 0
    for rate in np.geomspace(3.0, 1e4, 25):
        for k, level in ((2, 20), (3, 8), (4, 4), (5, 3)):
            for _ in range(4):
                try:
                    _, w = simplex_rule(_gw(rate, rng.dirichlet(np.full(k, 4.0))), level)
                except ValidationError as exc:  # SciPy's weights overflow at large, uneven exponents
                    assert exc.field == "gamma" and rate > 900
                    continue
                built += 1
                assert abs(w.sum() - 1.0) <= 1e-14
    assert built >= 300


def test_rule_raises_naming_gamma_where_scipy_weights_overflow():
    with pytest.raises(ValidationError) as exc:
        simplex_rule(_gw(1e4, (0.2, 0.8)), 40)
    assert exc.value.field == "gamma"


def test_inner_product_quad_matches_moment_route_at_k5():
    gw = GammaWeights((F(1, 2), F(0), F(-1, 4), F(1), F(1, 3)))
    polys = [basis_jacobi(n, gw, normalized=False) for d in range(3) for n in multi_indices(gw.nvars, d)]
    for f in polys:
        for g in polys:
            assert inner_product_quad(f, g, gw) == pytest.approx(float(inner_product(f, g, gw)), abs=1e-12)


def test_k6_raises_naming_k():
    with pytest.raises(ValidationError) as exc:
        simplex_rule(GammaWeights((0.0,) * 6), 3)
    assert exc.value.field == "k"


def test_package_import_leaves_scipy_stats_unloaded():
    code = "import sys, rpwf, rpwf.cli, rpwf.quadrature, rpwf.spectral; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpwf.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_package_import_and_simulation_leave_scipy_unloaded():
    # scipy.special is imported where it is used (Gauss-Jacobi roots, Jacobi
    # values, the Beta CDF), so the import and the simulation paths skip it
    code = """
import sys
import numpy as np
import rpwf, rpwf.cli
loaded = ["scipy" in sys.modules]
from rpwf import boundary, urn, wright_fisher as wf
wf_params = wf.WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))
urn.simulate_urn_ensemble(urn.UrnParams(1.0, 0.5, np.array([1.0, 1.0]), np.array([1.0, 1.0])), 5, 2, 1)
wf.simulate_wf_ensemble(wf_params, np.array([0.5, 0.5]), 0.01, wf.SdeConfig(dt=1e-3), 2, 1)
od = wf.OneDimWf(a0=0.3, a1=0.7)
wf.marginal_first_passage(od, 0.5, 0.4, 0.6, 1e-3, 2, 1, t_cap=1.0)
ip = boundary.IntervalProblem(od=od, a=0.25, b_pt=0.75)
boundary.hitting_prob(ip, 0.5), boundary.mean_exit_time(ip, 0.5)
loaded.append("scipy" in sys.modules)
print(loaded)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpwf.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[False, False]"


def test_every_exported_name_resolves_and_the_root_imports_only_exported_names():
    # a deleted name must leave its module's __all__ and the package root with it
    def exported(module):  # what `from module import *` takes: __all__, else every public global
        return set(getattr(module, "__all__", None) or (n for n in vars(module) if not n.startswith("_")))

    for info in pkgutil.iter_modules(rpwf.__path__):
        module = importlib.import_module(f"rpwf.{info.name}")
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == [], info.name
    for node in ast.parse(Path(rpwf.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert names <= exported(importlib.import_module(f"rpwf.{node.module}")), node.module


@pytest.mark.parametrize("e0, e1", [(-1.0, 0.0), (0.5, -1.5)])
def test_gauss_jacobi_01_rejects_an_exponent_at_or_below_minus_one(e0, e1):
    with pytest.raises(ValidationError) as exc:
        gauss_jacobi_01(8, e0, e1)
    assert exc.value.field == "exponent"
