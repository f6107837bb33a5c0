import numpy as np
import pytest

from swsos.backend import FEASIBLE, INFEASIBLE
from swsos.poly import Polynomial, monomial_basis, parse_polynomial, parse_vector
from swsos.sos import (DegreeBookkeepingError, LinPoly, PositivityConstraint,
                       assemble, certificate_from_solution, extract_sos_split,
                       gram_basis, mono_from_tag, solve, sos_decompose)


def test_gram_basis_half_degree():
    assert gram_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert gram_basis(2, 1, min_half_deg=1) == [(1, 0), (0, 1)]
    assert len(gram_basis(2, 3)) == 10


def test_linpoly_decision_and_instantiate():
    lp = LinPoly.decision(2, "c", [(2, 0), (0, 2)])
    p = lp.instantiate({"c[2,0]": 1.5, "c[0,2]": -2.0})
    assert p == parse_polynomial("1.5*x1^2 - 2*x2^2", 2)
    assert mono_from_tag("2,0") == (2, 0)


def test_linpoly_lie_matches_polynomial_lie():
    from swsos.poly import lie_derivative
    V = parse_polynomial("x1^2 + 3*x2^2", 2)
    F = parse_vector(["-x2", "x1^3"], 2)
    lp = LinPoly.from_poly(V).lie(F)
    assert lp.instantiate({}) == lie_derivative(V, F)


def test_sos_decompose_perfect_square():
    p = parse_polynomial("x1^2 + 2*x1*x2 + x2^2", 2)  # (x1 + x2)^2
    cert = sos_decompose(p)
    assert cert.feasible
    assert cert.residual_norm < 1e-6


def test_sos_decompose_motzkin_infeasible():
    # nonnegative but not SOS: the canonical conservatism example
    motzkin = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
    cert = sos_decompose(motzkin)
    assert cert.status == INFEASIBLE


def test_sos_decompose_rejects_odd_degree():
    with pytest.raises(ValueError):
        sos_decompose(parse_polynomial("x1^3", 1))
    with pytest.raises(ValueError):
        sos_decompose(Polynomial.zero(1))


def test_extract_sos_split_roundtrip():
    p = parse_polynomial("2*x1^4 + 2*x1^3*x2 - x1^2*x2^2 + 5*x2^4", 2)
    cert = sos_decompose(p)
    assert cert.feasible
    squares = extract_sos_split(cert, "sos:s0")
    recon = Polynomial.zero(2)
    for q in squares:
        recon = recon + q * q
    assert (recon - p).coeff_norm() < 1e-6


def test_extract_sos_split_unknown_block():
    cert = sos_decompose(parse_polynomial("x1^2", 1))
    with pytest.raises(KeyError):
        extract_sos_split(cert, "nope")


def test_positivstellensatz_with_inequality_generator():
    # x1 >= 1 on the set {x1 - 1 >= 0}: x1 - 1 = 0 + 1*(x1 - 1)
    g = parse_polynomial("x1 - 1", 1)
    cons = PositivityConstraint(cid="c", target=LinPoly.from_poly(g),
                                inequality_generators=[g])
    sol = solve(assemble([cons]))
    assert sol.status == FEASIBLE


def test_positivstellensatz_infeasible_on_constraint_set():
    # -x1 >= 0 cannot hold on {x1 - 1 >= 0} with degree-0 multipliers
    g = parse_polynomial("x1 - 1", 1)
    target = parse_polynomial("-x1", 1)
    cons = PositivityConstraint(cid="c", target=LinPoly.from_poly(target),
                                inequality_generators=[g])
    sol = solve(assemble([cons]))
    assert sol.status == INFEASIBLE


def test_equality_generator_above_target_degree_is_dropped():
    # constant target with a degree-1 equality generator: the only valid
    # multiplier is zero, so assembly must not error out
    cons = PositivityConstraint(
        cid="c", target=LinPoly.from_poly(Polynomial.constant(2, 1.0)),
        equality_generators=[parse_polynomial("x2", 2)])
    sol = solve(assemble([cons]))
    assert sol.status == FEASIBLE


def test_inequality_generator_above_target_degree_errors():
    # x2^2 has higher degree than the target x1: its SOS multiplier would
    # need a negative degree
    cons = PositivityConstraint(
        cid="c", target=LinPoly.from_poly(parse_polynomial("x1", 2)),
        inequality_generators=[parse_polynomial("x2^2", 2)])
    with pytest.raises(DegreeBookkeepingError):
        assemble([cons])


def test_assemble_rejects_duplicate_constraint_ids():
    # each is feasible alone; sharing cid "c" would share their multiplier
    # scalars and Gram block ids
    g = parse_polynomial("x1", 1)
    cons = [PositivityConstraint(cid="c", target=parse_polynomial(t, 1),
                                 equality_generators=[g])
            for t in ("x1^2 + x1", "x1^2 - x1")]
    for c in cons:
        assert solve(assemble([c])).status == FEASIBLE
    with pytest.raises(ValueError, match="duplicate"):
        assemble(cons)


def test_identity_rows_enforced_exactly():
    # find c with c*x1 - 2*x1 = 0; solvable only by c = 2
    lp = LinPoly.decision(1, "c", [(1,)]) - LinPoly.from_poly(
        parse_polynomial("2*x1", 1))
    cons = PositivityConstraint(
        cid="pd", target=LinPoly.from_poly(parse_polynomial("x1^2", 1)))
    problem = assemble([cons], identities=[lp])
    sol = solve(problem)
    assert sol.status == FEASIBLE
    assert abs(sol.scalar_values["c[1]"] - 2.0) < 1e-6


def test_certificate_from_solution_groups_multipliers():
    g = parse_polynomial("x1", 1)
    target = LinPoly.from_poly(parse_polynomial("x1^2 + x1", 1))
    cons = PositivityConstraint(cid="c", target=target,
                                equality_generators=[g])
    problem = assemble([cons])
    sol = solve(problem)
    assert sol.status == FEASIBLE
    cert = certificate_from_solution(problem, sol, 1)
    assert "c:s0" in cert.gram_blocks
    assert "c:r0" in cert.free_multipliers
    # the reconstruction identity target = s0 + r0 * g must hold
    s0 = cert.gram_blocks["c:s0"].polynomial(1)
    resid = (s0 + cert.free_multipliers["c:r0"] * g
             - parse_polynomial("x1^2 + x1", 1)).coeff_norm()
    assert resid < 1e-6
