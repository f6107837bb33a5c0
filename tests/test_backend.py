import numpy as np
import pytest

from swsos.backend import FEASIBLE, INFEASIBLE, UNBOUNDED, SdpProblem, solve


def _problem(blocks, scalars, rows, c=None):
    """SdpProblem from rows of (svec terms, scalar terms, rhs), each terms
    dict mapping a column to its coefficient."""
    A, F = ([], [], []), ([], [], [])
    for r, (xterms, sterms, _) in enumerate(rows):
        for (rr, kk, vv), terms in ((A, xterms), (F, sterms)):
            for k, v in terms.items():
                rr.append(r)
                kk.append(k)
                vv.append(v)
    nc = sum(n * (n + 1) // 2 for _, n in blocks)
    return SdpProblem(list(blocks), list(scalars), A, F, [rhs for *_, rhs in rows],
                      np.zeros(nc) if c is None else c)


def _problem_psd_scalar(rhs, scalars=(), c=None):
    """One 1x1 PSD block q with the row q = rhs (feasible iff rhs >= 0)."""
    return _problem([("Q", 1)], scalars, [({0: 1.0}, {}, rhs)], c)


def test_feasible_scalar_block():
    sol = solve(_problem_psd_scalar(2.0))
    assert sol.status == FEASIBLE
    assert abs(sol.block_values["Q"][0, 0] - 2.0) < 1e-6


def test_infeasible_scalar_block():
    sol = solve(_problem_psd_scalar(-1.0))
    assert sol.status == INFEASIBLE


def test_free_scalar_equality():
    # t + q = 3 and t - q = 1  =>  t = 2, q = 1
    p = _problem([("Q", 1)], ["t"], [({0: 1.0}, {0: 1.0}, 3.0),
                                     ({0: -1.0}, {0: 1.0}, 1.0)])
    sol = solve(p)
    assert sol.status == FEASIBLE
    assert abs(sol.scalar_values["t"] - 2.0) < 1e-6


def test_objective_breaks_upward_cone():
    # q >= 1 is feasible for any larger q; minimizing trace must pin q = 1
    # (svec columns of a 2x2 block: Q00, Q01, Q11)
    p = _problem([("Q", 2)], [], [({0: 1.0, 2: -1.0}, {}, 1.0)], c=[1.0, 0.0, 1.0])
    sol = solve(p)
    assert sol.status == FEASIBLE
    assert abs(np.trace(sol.block_values["Q"]) - 1.0) < 1e-5


def test_reported_residual_matches_solution():
    sol = solve(_problem_psd_scalar(2.0))
    assert sol.primal_residual < 1e-6
    assert "Q" in sol.min_eigenvalues


def test_unbounded_objective():
    # Q00 = 1 leaves Q11 free to grow, so minimizing -Q11 has no bound
    p = _problem([("Q", 2)], [], [({0: 1.0}, {}, 1.0)], c=[0.0, 0.0, -1.0])
    assert solve(p).status == UNBOUNDED


def test_validate_rejects_unknown_keys():
    # an svec column with no PSD block declared
    p = _problem([], [], [({0: 1.0}, {}, 0.0)])
    with pytest.raises(ValueError, match=r"A entry \(0, 0\) lies outside its 1 x 0"):
        p.validate()


def test_validate_rejects_out_of_range_index():
    # entry (1, 1) of a 1x1 block, scalar 1 of one, a row past the last,
    # negative indices, and an objective of the wrong length, one entry per
    # free scalar too many included
    bad = [
        (_problem([("Q", 1)], [], [({1: 1.0}, {}, 0.0)]), r"A entry \(0, 1\)"),
        (_problem([("Q", 1)], ["t"], [({0: 1.0}, {1: 1.0}, 0.0)]), r"F entry \(0, 1\)"),
        (_problem([("Q", 1)], ["t"], [({0: 1.0}, {-1: 1.0}, 0.0)]), r"F entry \(0, -1\)"),
        (SdpProblem([("Q", 1)], [], ([1], [0], [1.0]), ([], [], []), [0.0], [0.0]),
         r"A entry \(1, 0\)"),
        (SdpProblem([("Q", 1)], [], ([-1], [0], [1.0]), ([], [], []), [0.0], [0.0]),
         r"A entry \(-1, 0\)"),
        (_problem_psd_scalar(1.0, c=[1.0, 1.0]), r"c has shape \(2,\), not \(1,\)"),
        (_problem_psd_scalar(1.0, c=[]), r"c has shape \(0,\), not \(1,\)"),
        (_problem_psd_scalar(1.0, scalars=["u"], c=[1.0, 0.0]), r"c has shape \(2,\), not \(1,\)"),
        (SdpProblem([("Q", 1)], [], ([0, 0], [0], [1.0]), ([], [], []), [0.0], [0.0]),
         "A triplet arrays differ"),
    ]
    for p, message in bad:
        with pytest.raises(ValueError, match=message):
            p.validate()
        with pytest.raises(ValueError, match=message):
            solve(p)


def test_validate_rejects_duplicate_block_ids():
    # blocks are told apart by id in the solution, so ids must be unique
    p = _problem([("Q", 1), ("Q", 1)], [], [({0: 1.0}, {}, 1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        p.validate()


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_validate_rejects_non_finite_coefficient(bad):
    p = _problem([("Q", 1)], ["u"], [({0: 1.0}, {}, 1.0), ({0: bad}, {0: 1.0}, 0.0)])
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        p.validate()
    p = _problem([("Q", 1)], ["u"], [({0: 1.0}, {}, 1.0), ({0: 1.0}, {0: bad}, 0.0)])
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        p.validate()
    # the objective
    p = _problem_psd_scalar(1.0, scalars=["u"], c=[bad])
    with pytest.raises(ValueError, match="objective c has a non-finite"):
        p.validate()
    with pytest.raises(ValueError, match="objective c has a non-finite"):
        solve(p)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_validate_rejects_non_finite_rhs(bad):
    p = _problem([("Q", 1)], [], [({0: 1.0}, {}, 1.0), ({0: 2.0}, {}, bad)])
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        p.validate()


def test_validate_names_the_first_undeclared_key():
    # indices are checked before any value, and the first entry outside
    # its matrix is the one reported, even with a non-finite value about
    def problem(scalars):
        return _problem([("Q", 1)], scalars, [({0: 1.0}, {}, float("nan")),
                                              ({0: 1.0}, {0: 1.0}, 0.0),
                                              ({}, {1: 1.0, 0: 1.0}, 0.0)])
    with pytest.raises(ValueError, match=r"F entry \(1, 0\) lies outside its 3 x 0"):
        problem([]).validate()
    with pytest.raises(ValueError, match=r"F entry \(2, 1\) lies outside its 3 x 1"):
        problem(["a"]).validate()
    with pytest.raises(ValueError, match="row 0 has a non-finite"):
        problem(["a", "b"]).validate()

