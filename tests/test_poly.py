import math
import warnings

import numpy as np
import pytest

from swsos.poly import (Polynomial, PolyVector, PolynomialParseError,
                        coefficients_equal, grlex_key, grlex_rank,
                        lie_derivative, monomial_basis, parse_polynomial,
                        parse_vector)


def test_parse_basic():
    p = parse_polynomial("2*x1^2 - 3*x2 + 1", 2)
    assert p.terms == {(2, 0): 2.0, (0, 1): -3.0, (0, 0): 1.0}


def test_parse_implicit_multiplication_and_signs():
    # '*' between coefficient and variable is optional, double signs fold
    assert parse_polynomial("-x1*x2", 2) == parse_polynomial("- 1 * x1 * x2", 2)
    assert parse_polynomial("--x1", 1) == parse_polynomial("x1", 1)
    assert parse_polynomial("0.5x1^3", 1).terms == {(3,): 0.5}


def test_parse_scientific_notation():
    p = parse_polynomial("1e-3*x1 + 2.5E+2", 1)
    assert p.coefficient((1,)) == 1e-3
    assert p.coefficient((0,)) == 250.0


@pytest.mark.parametrize("bad", ["", "x0", "x3", "^2", "x1 +", "1..2*x1", "y1",
                                 "x1**2", "2*-3", "x1*", "*x1", "x1*+x2"])
def test_parse_rejects(bad):
    with pytest.raises(PolynomialParseError):
        parse_polynomial(bad, 2)


def test_to_string_round_trip():
    p = parse_polynomial("0.98847*x1^6 - 0.70253*x1^3*x2 + 1.4904*x2^2", 2)
    q = parse_polynomial(p.to_string(), 2)
    assert p == q


def test_arithmetic_ring_identities():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert (x1 + 2) * 3 == 3 * x1 + 6
    assert x1 ** 0 == Polynomial.constant(2, 1.0)


def test_immutability():
    p = Polynomial.variable(2, 0)
    with pytest.raises(AttributeError):
        p.dim = 3


def test_degree_conventions():
    assert Polynomial.zero(2).degree() == 0
    assert parse_polynomial("x1*x2^3 + x1", 2).degree() == 4


def test_zero_coefficients_dropped():
    p = Polynomial(1, {(1,): 1.0}) - Polynomial(1, {(1,): 1.0})
    assert p.terms == {}
    assert Polynomial(1, {(2,): 0.0}).is_zero()


def test_diff_and_gradient():
    p = parse_polynomial("x1^3*x2^2", 2)
    assert p.diff(0) == parse_polynomial("3*x1^2*x2^2", 2)
    assert p.diff(1) == parse_polynomial("2*x1^3*x2", 2)
    g = p.gradient()
    assert len(g) == 2 and g[0] == p.diff(0)


def test_lie_derivative_product_rule():
    # d/dt of V = x1^2 + x2^2 along F = (-x2, x1) is identically zero
    V = parse_polynomial("x1^2 + x2^2", 2)
    F = parse_vector(["-x2", "x1"], 2)
    assert lie_derivative(V, F).is_zero()
    # and along F = (-x1, -x2) it is -2V
    F2 = parse_vector(["-x1", "-x2"], 2)
    assert lie_derivative(V, F2) == V * (-2.0)


def test_evaluation_matches_numpy_reference():
    rng = np.random.default_rng(3)
    basis = monomial_basis(3, 5)
    p = Polynomial(3, {m: c for m, c in zip(basis, rng.normal(size=len(basis)))})
    X = rng.uniform(-2, 2, size=(50, 3))
    direct = np.array([
        sum(c * np.prod(x ** np.array(m)) for m, c in p.terms.items())
        for x in X
    ])
    assert np.allclose(p.eval_many(X), direct, atol=1e-12)
    assert math.isclose(p(X[0]), direct[0], abs_tol=1e-12)


def test_eval_shape_errors():
    p = parse_polynomial("x1", 2)
    with pytest.raises(ValueError):
        p(np.zeros(3))
    with pytest.raises(ValueError):
        p.eval_many(np.zeros((5, 3)))


def test_monomial_basis_counts():
    # |basis| = C(n + d, d)
    assert len(monomial_basis(2, 6)) == math.comb(8, 6)
    assert len(monomial_basis(3, 4)) == math.comb(7, 4)
    assert (0, 0) not in monomial_basis(2, 3, include_constant=False)


def test_grlex_order_is_graded():
    basis = monomial_basis(2, 4)
    degrees = [sum(m) for m in basis]
    assert degrees == sorted(degrees)
    # within a degree, x1 comes before x2
    assert basis.index((1, 0)) < basis.index((0, 1))
    # the basis is generated in grlex order, without a sort
    for n in range(1, 5):
        for d in range(7):
            for include_constant in (True, False):
                basis = monomial_basis(n, d, include_constant)
                assert sorted(set(basis), key=grlex_key) == basis


def test_grlex_rank_is_the_position_in_the_basis():
    # the same rank in every basis that holds the monomial, up to dimension
    # 6, and no rows for no monomials
    for n in range(1, 7):
        basis = monomial_basis(n, 6)
        assert grlex_rank(basis).tolist() == list(range(len(basis)))
        assert grlex_rank(basis[::-1]).tolist() == list(range(len(basis)))[::-1]
        assert grlex_rank(np.zeros((0, n), dtype=int)).shape == (0,)
    assert grlex_rank([(0, 20, 0)]).tolist() == [monomial_basis(3, 20).index((0, 20, 0))]


def test_coefficients_equal():
    p = parse_polynomial("x1^2 + x2", 2)
    q = parse_polynomial("x1^2 + 2*x2", 2)
    assert coefficients_equal(p, p) == {}
    assert coefficients_equal(p, q) == {(0, 1): -1.0}


def test_cleanup_is_display_only():
    p = parse_polynomial("x1 + 1e-9*x2", 2)
    assert p.cleanup(1e-6).terms == {(1, 0): 1.0}
    assert p.coefficient((0, 1)) == 1e-9  # original untouched


def test_polyvector_dimension_checks():
    with pytest.raises(ValueError):
        PolyVector([])
    with pytest.raises(ValueError):
        PolyVector([Polynomial.variable(1, 0), Polynomial.variable(2, 0)])


@pytest.mark.parametrize("bad", [1e400, -1e400, float("nan")])
def test_eval_many_non_finite_coefficients_do_not_warn(bad):
    # inf * 0.0 and nan are computed silently, as the scalar call does
    p = Polynomial(2, {(1, 0): bad, (0, 1): 1.0, (3, 0): 1e300})
    X = np.array([[0.0, 1.0], [1.0, 1.0], [1e200, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p.eval_many(X)
        rows = [p.eval_many(x[None]).tolist()[0] for x in X]
    assert repr(got.tolist()) == repr([p(x) for x in X])
    assert repr(rows) == repr([p(x) for x in X])
