import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import eval_jacobi

from rpwf.errors import ValidationError
from rpwf.polynomials import (
    GammaWeights,
    MultiIndexPolynomial,
    apply_generator,
    basis_jacobi,
    basis_monic,
    basis_rodrigues,
    dirichlet_moment,
    eigenvalue_lambda,
    eigenvalue_nu,
    inner_product,
    jacobi_product_norm_sq_log,
    multi_indices,
)
from rpwf.quadrature import inner_product_quad
from rpwf.rng import generator
from rpwf.wright_fisher import WfParams

GW2 = GammaWeights((F(0), F(0)))
GW3 = GammaWeights((F(1, 5), F(-1, 2), F(1)))


def all_indices(nvars, max_degree):
    return [n for d in range(max_degree + 1) for n in multi_indices(nvars, d)]


def test_polynomial_arithmetic_and_diff():
    y1 = MultiIndexPolynomial.variable(2, 0)
    y2 = MultiIndexPolynomial.variable(2, 1)
    f = (y1 + y2) * (y1 - y2)
    assert f == y1 * y1 - y2 * y2
    assert f.diff(0) == 2 * y1
    assert f.degree == 2
    assert (f - f).is_zero()


def test_polynomial_eval_matches_eval_many():
    rng = generator(3, "poly-eval")
    f = MultiIndexPolynomial(2, {(0, 0): F(1, 3), (2, 1): F(-7, 2), (0, 3): F(5)})
    pts = rng.random((50, 2))
    single = np.array([f(p) for p in pts])
    assert np.allclose(single, f.eval_many(pts), atol=1e-14)


def test_raw_jacobi_at_k2_matches_scipy():
    # at k = 2 the raw element is p_n^{(gamma_2, gamma_1)}(2y - 1); exact at y = 137/200, t = 0.37
    f = basis_jacobi((5,), GammaWeights((F(1, 4), F(3, 2))), normalized=False)
    val = sum(c * F(137, 200) ** e for (e,), c in f.coeffs.items())
    assert float(val) == pytest.approx(eval_jacobi(5, 1.5, 0.25, 0.37), abs=1e-14)


# sha256 over the sorted coefficient items of the raw product-Jacobi and Rodrigues elements, up to
# the given degree; the digest was computed with the three-term Jacobi recurrence and the
# term-by-term Rodrigues differentiation that the explicit sums replaced
_PINNED_BASES = (
    ((F(-1, 2), F(7, 3)), 24),
    ((F(-3, 5), F(1, 3), F(-1, 7)), 6),
    ((F(2), F(-9, 10), F(-1, 5), F(1, 4)), 4),
    ((F(-1, 2), F(1, 3), F(-1, 5), F(2), F(5, 7)), 3),
)
_PINNED_DIGEST = "1f5d8d0f3e018ed5b76c702ff1af2228b95f982ba21fae6eeedd3e00d6cab398"


def test_raw_jacobi_and_rodrigues_coefficients_keep_their_pinned_values():
    h = hashlib.sha256()
    for gamma, top in _PINNED_BASES:
        gw = GammaWeights(gamma)
        for deg in range(top + 1):
            for n in multi_indices(gw.nvars, deg):
                for f in (basis_jacobi(n, gw, normalized=False), basis_rodrigues(n, gw)):
                    h.update(repr(sorted(f.coeffs.items())).encode())
    assert h.hexdigest() == _PINNED_DIGEST


# sha256 over the sorted coefficient items of +, -, unary -, scalar * and ** on basis elements
# with rational and with float gamma; the digest was computed when each operator kept its own
# coefficient loop and ** was a binary exponentiation
_OPERATOR_DIGEST = "3ec9a72a5fc514cf20d19e44f8a015d260cd4f06fbfeb40d988e62c39f2d1978"


def _operator_results(gamma):
    gw = GammaWeights(gamma)
    f = basis_jacobi((1, 1), gw, normalized=False)
    g = basis_rodrigues((2, 0), gw)
    h = basis_monic((0, 2), gw)
    yield from (f + g, g + h + 1, f - g, h - F(1, 3), h - 0.25, f - f, -g, -(f - h))
    yield from (3 * f, g * F(-2, 7), h * 0.125, 0 * g, f * 0.0, f * g, g * h)
    yield from (f**0, f**1, g**2, h**3, (f - g) ** 3, basis_jacobi((1, 2), gw) ** 3)


def test_polynomial_operators_keep_their_pinned_coefficients():
    h = hashlib.sha256()
    for gamma in ((F(-1, 2), F(1, 3), F(2, 5)), (-0.5, 1 / 3, 0.4)):
        for poly in _operator_results(gamma):
            h.update(repr(sorted(poly.coeffs.items())).encode())
    assert h.hexdigest() == _OPERATOR_DIGEST


@pytest.mark.parametrize("gamma", [(F(-1, 2), F(1, 3), F(2, 5)), (-0.5, 1 / 3, 0.4)])
def test_a_scalar_adds_and_subtracts_from_the_left(gamma):
    # 1 - f and 2 + f raised TypeError: there was no __radd__ or __rsub__
    f = basis_jacobi((1, 1), GammaWeights(gamma), normalized=False)
    for c in (1, 2, F(2, 3), 0.75):
        assert (c - f).coeffs == (f * -1 + c).coeffs
        assert (c + f).coeffs == (f + c).coeffs


def test_dirichlet_moment_uniform_triangle():
    gw = GammaWeights((F(0), F(0), F(0)))
    assert dirichlet_moment(gw, (1, 0)) == F(1, 3)
    assert dirichlet_moment(gw, (1, 1)) == F(1, 12)
    assert dirichlet_moment(gw, (2, 0)) == F(1, 6)


def test_basis_jacobi_degree_zero_is_constant_one():
    f = basis_jacobi((0, 0), GW3, normalized=False)
    assert f == MultiIndexPolynomial.one(2)


def test_basis_jacobi_shifted_legendre():
    # gamma = (0,0): degree-1 element is sqrt(3) (2y - 1)
    f = basis_jacobi((1,), GW2)
    coeffs = {e: float(c) for e, c in f.coeffs.items()}
    assert coeffs[(1,)] == pytest.approx(2 * math.sqrt(3), rel=1e-13)
    assert coeffs[(0,)] == pytest.approx(-math.sqrt(3), rel=1e-13)


def test_basis_jacobi_unit_norm_exact_route():
    for n in all_indices(2, 3):
        f = basis_jacobi(n, GW3)
        assert float(inner_product(f, f, GW3)) == pytest.approx(1.0, abs=1e-11)


def test_jacobi_gram_identity_by_quadrature():
    idx = all_indices(2, 3)
    polys = [basis_jacobi(n, GW3) for n in idx]
    G = np.array([[inner_product_quad(f, g, GW3) for g in polys] for f in polys])
    assert np.abs(G - np.eye(len(idx))).max() < 1e-8


def test_norm_formula_matches_exact_inner_product():
    for n in [(1, 0), (2, 1), (0, 3), (3, 0)]:
        raw = basis_jacobi(n, GW3, normalized=False)
        exact = float(inner_product(raw, raw, GW3))
        formula = math.exp(jacobi_product_norm_sq_log(n, GW3))
        assert formula == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("gamma", [(F(-3, 5), F(-3, 5)), (F(-1, 2), F(-1, 2), F(-1, 2))])
def test_norm_formula_at_degree_zero_factors_in_recessive_regime(gamma):
    # a_i + b_i + 1 <= 0 for some factor at degree 0: the m >= 1 form has log(0) or log(<0)
    gw = GammaWeights(gamma)
    for deg in range(3):
        for n in multi_indices(gw.nvars, deg):
            raw = basis_jacobi(n, gw, normalized=False)
            exact = float(inner_product(raw, raw, gw))
            assert jacobi_product_norm_sq_log(n, gw) == pytest.approx(math.log(exact), rel=1e-12, abs=1e-12)


def test_monic_degree_zero_is_one():
    assert basis_monic((0, 0), GW3) == MultiIndexPolynomial.one(2)


def test_monic_leading_coefficient_is_one():
    for n in [(1, 0), (2, 1), (0, 3)]:
        assert basis_monic(n, GW3).coeffs[n] == 1


def test_monic_orthogonal_to_lower_degrees_exactly():
    for n in all_indices(2, 3):
        if sum(n) == 0:
            continue
        V = basis_monic(n, GW3)
        for m in all_indices(2, sum(n) - 1):
            assert inner_product(V, MultiIndexPolynomial.monomial(2, m), GW3) == 0


def test_monic_cross_degree_orthogonality_by_quadrature():
    idx = all_indices(2, 3)
    polys = {n: basis_monic(n, GW3) for n in idx}
    for n1 in idx:
        for n2 in idx:
            if sum(n1) != sum(n2):
                assert abs(inner_product_quad(polys[n1], polys[n2], GW3)) < 1e-8


def test_monic_within_degree_gram_is_not_diagonal():
    # Documented counterexample: under the uniform weight on the triangle,
    # V_(1,0) = y1 - 1/3 and V_(0,1) = y2 - 1/3 have covariance -1/36.
    gw = GammaWeights((F(0), F(0), F(0)))
    v10 = basis_monic((1, 0), gw)
    v01 = basis_monic((0, 1), gw)
    assert inner_product(v10, v01, gw) == F(-1, 36)


def test_rodrigues_degree_zero_is_one():
    assert basis_rodrigues((0, 0), GW3) == MultiIndexPolynomial.one(2)


def test_rodrigues_uniform_degree_one():
    # gamma = 0: U_(1,0) = d/dy1 [ (1-y1-y2) y1 ] = 1 - 2 y1 - y2
    gw = GammaWeights((F(0), F(0), F(0)))
    U = basis_rodrigues((1, 0), gw)
    expected = MultiIndexPolynomial(2, {(0, 0): F(1), (1, 0): F(-2), (0, 1): F(-1)})
    assert U == expected


def test_u_v_biorthogonality_exact_and_by_quadrature():
    idx = all_indices(2, 3)
    for n1 in idx:
        U = basis_rodrigues(n1, GW3)
        for n2 in idx:
            V = basis_monic(n2, GW3)
            ip = inner_product(U, V, GW3)
            if n1 != n2:
                assert ip == 0
                assert abs(inner_product_quad(U, V, GW3)) < 1e-8
            else:
                assert ip != 0


def test_generator_kills_constants():
    assert apply_generator(MultiIndexPolynomial.one(2), GW3).is_zero()


def test_generator_univariate_linear():
    # k=2: L_gamma(y) = (gamma1 + 1) - (gamma1 + gamma2 + 2) y
    gw = GammaWeights((F(1, 3), F(2, 5)))
    out = apply_generator(MultiIndexPolynomial.variable(1, 0), gw)
    expected = MultiIndexPolynomial(1, {(0,): F(1, 3) + 1, (1,): -(F(1, 3) + F(2, 5) + 2)})
    assert out == expected


def test_generator_degree_never_increases():
    rng = generator(11, "gen-deg")
    for _ in range(20):
        exps = tuple(int(v) for v in rng.integers(0, 3, size=2))
        f = MultiIndexPolynomial.monomial(2, exps)
        assert apply_generator(f, GW3).degree <= sum(exps)


def test_generator_matches_finite_differences():
    # k=3, f = y1 y2, checked against a second-order stencil at interior points
    gw = GammaWeights((0.2, -0.5, 1.0))
    f = MultiIndexPolynomial.variable(2, 0) * MultiIndexPolynomial.variable(2, 1)
    Lf = apply_generator(f, gw)
    g = [float(v) for v in gw.gamma]
    s = sum(g) + 3

    def L_fd(y1, y2, h=1e-4):
        def fv(a, b):
            return a * b

        d1 = (fv(y1 + h, y2) - fv(y1 - h, y2)) / (2 * h)
        d2 = (fv(y1, y2 + h) - fv(y1, y2 - h)) / (2 * h)
        d11 = (fv(y1 + h, y2) - 2 * fv(y1, y2) + fv(y1 - h, y2)) / h**2
        d22 = (fv(y1, y2 + h) - 2 * fv(y1, y2) + fv(y1, y2 - h)) / h**2
        d12 = (fv(y1 + h, y2 + h) - fv(y1 + h, y2 - h) - fv(y1 - h, y2 + h) + fv(y1 - h, y2 - h)) / (4 * h**2)
        return (
            ((g[0] + 1) - s * y1) * d1
            + ((g[1] + 1) - s * y2) * d2
            + y1 * (1 - y1) * d11
            + y2 * (1 - y2) * d22
            - 2 * y1 * y2 * d12
        )

    rng = generator(17, "gen-fd")
    for _ in range(20):
        y = rng.random(2) * 0.4 + 0.05
        assert Lf(y) == pytest.approx(L_fd(*y), abs=1e-6)


@pytest.mark.parametrize("gw", [GW2, GW3, GammaWeights((F(0), F(2)))])
def test_eigen_identity_exact_all_bases(gw):
    nvars = gw.nvars
    for deg in range(0, 4):
        lam = eigenvalue_lambda(deg, gw)
        for n in multi_indices(nvars, deg):
            for build in (lambda m: basis_jacobi(m, gw, normalized=False), lambda m: basis_monic(m, gw), lambda m: basis_rodrigues(m, gw)):
                f = build(n)
                assert (apply_generator(f, gw) + lam * f).is_zero()


def test_eigenvalue_nu_examples():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))  # 2 b / alpha = 2
    assert eigenvalue_nu(0, params) == 0.0
    assert eigenvalue_nu(1, params) == pytest.approx(1.0)
    # degree-1 decay equals the drift rate b/alpha for any parameters
    params2 = WfParams(b=1.7, alpha=0.4, p=np.array([0.3, 0.7]))
    assert eigenvalue_nu(1, params2) == pytest.approx(params2.rate)


def test_lambda_is_twice_nu():
    params = WfParams(b=1.3, alpha=0.9, p=np.array([0.25, 0.75]))
    gw = GammaWeights.from_wf(params)
    for n in range(7):
        assert float(eigenvalue_lambda(n, gw)) == pytest.approx(2.0 * eigenvalue_nu(n, params), rel=1e-12)


def test_dimension_of_degree_spaces():
    for k in (2, 3, 4, 5):
        for n in range(5):
            assert math.comb(n + k - 2, n) == len(multi_indices(k - 1, n))


def test_supported_range_rejected_with_bounds():
    with pytest.raises(ValidationError) as exc:
        basis_jacobi((11, 0), GW3)
    assert "10" in str(exc.value)
    gw6 = GammaWeights((F(0),) * 6)
    with pytest.raises(ValidationError):
        basis_jacobi((1, 0, 0, 0, 0), gw6)


def test_gamma_weights_from_wf_and_validation():
    params = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))
    gw = GammaWeights.from_wf(params)
    assert np.allclose([float(v) for v in gw.gamma], [0.0, 0.0])
    with pytest.raises(ValidationError):
        GammaWeights((-1.0, 0.0))


_WF2 = WfParams(b=1.0, alpha=1.0, p=np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: GammaWeights((F(1, 2),)), "gamma"),
        (lambda: basis_jacobi((1,), GW3), "n"),
        (lambda: basis_monic((1, -1), GW3), "n"),
        (lambda: basis_rodrigues((1, 0, 0), GW3), "n"),
        (lambda: dirichlet_moment(GW3, (1,)), "exps"),
        (lambda: apply_generator(MultiIndexPolynomial.one(1), GW3), "f"),
        (lambda: eigenvalue_nu(-1, _WF2), "n"),
    ],
)
def test_polynomial_rejections_name_their_field(call, field):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.field == field


def test_polynomial_power_is_repeated_multiplication():
    f = MultiIndexPolynomial.variable(2, 0) - F(1, 3) * MultiIndexPolynomial.variable(2, 1) + 2
    assert f**0 == MultiIndexPolynomial.one(2)
    assert f**4 == f * f * f * f
    with pytest.raises(ValueError):
        f ** -1
