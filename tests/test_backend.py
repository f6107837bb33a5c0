import numpy as np
import pytest

from swsos.backend import FEASIBLE, INFEASIBLE, UNBOUNDED, SdpProblem, solve


def _problem_psd_scalar(rhs):
    """One 1x1 PSD block q with the row q = rhs (feasible iff rhs >= 0)."""
    p = SdpProblem()
    p.psd_blocks.append(("Q", 1))
    p.equality_rows.append(({("e", "Q", 0, 0): 1.0}, rhs))
    return p


def test_feasible_scalar_block():
    sol = solve(_problem_psd_scalar(2.0))
    assert sol.status == FEASIBLE
    assert abs(sol.block_values["Q"][0, 0] - 2.0) < 1e-6
    assert sol.feasible


def test_infeasible_scalar_block():
    sol = solve(_problem_psd_scalar(-1.0))
    assert sol.status == INFEASIBLE
    assert not sol.feasible


def test_free_scalar_equality():
    p = SdpProblem()
    p.free_scalars.append("t")
    p.psd_blocks.append(("Q", 1))
    # t + q = 3 and t - q = 1  =>  t = 2, q = 1
    p.equality_rows.append(({("s", "t"): 1.0, ("e", "Q", 0, 0): 1.0}, 3.0))
    p.equality_rows.append(({("s", "t"): 1.0, ("e", "Q", 0, 0): -1.0}, 1.0))
    sol = solve(p)
    assert sol.status == FEASIBLE
    assert abs(sol.scalar_values["t"] - 2.0) < 1e-6


def test_objective_breaks_upward_cone():
    # q >= 1 is feasible for any larger q; minimizing trace must pin q = 1
    p = SdpProblem()
    p.psd_blocks.append(("Q", 2))
    p.equality_rows.append(({("e", "Q", 0, 0): 1.0, ("e", "Q", 1, 1): -1.0}, 1.0))
    p.objective[("e", "Q", 0, 0)] = 1.0
    p.objective[("e", "Q", 1, 1)] = 1.0
    sol = solve(p)
    assert sol.status == FEASIBLE
    assert abs(np.trace(sol.block_values["Q"]) - 1.0) < 1e-5


def test_reported_residual_matches_solution():
    sol = solve(_problem_psd_scalar(2.0))
    assert sol.primal_residual < 1e-6
    assert "Q" in sol.min_eigenvalues


def test_objective_on_free_scalar():
    # min t subject to t - q = 1, q >= 0: t = 1
    p = _problem_psd_scalar(0.0)
    p.free_scalars.append("t")
    p.equality_rows[0] = ({("s", "t"): 1.0, ("e", "Q", 0, 0): -1.0}, 1.0)
    p.objective[("s", "t")] = 1.0
    sol = solve(p)
    assert sol.status == FEASIBLE
    assert abs(sol.scalar_values["t"] - 1.0) < 1e-6


def test_unbounded_objective():
    # the free scalar u is in no row, so minimizing it has no bound
    p = _problem_psd_scalar(1.0)
    p.free_scalars.append("u")
    p.objective[("s", "u")] = 1.0
    assert solve(p).status == UNBOUNDED


def test_validate_rejects_unknown_keys():
    p = SdpProblem()
    p.equality_rows.append(({("e", "missing", 0, 0): 1.0}, 0.0))
    with pytest.raises(ValueError):
        p.validate()


def test_validate_rejects_out_of_range_index():
    p = SdpProblem()
    p.psd_blocks.append(("Q", 1))
    p.equality_rows.append(({("e", "Q", 1, 1): 1.0}, 0.0))
    with pytest.raises(ValueError):
        p.validate()


def test_validate_rejects_duplicate_block_ids():
    # rows name blocks by id, so two blocks with one id cannot be told apart
    p = _problem_psd_scalar(1.0)
    p.psd_blocks.append(("Q", 1))
    with pytest.raises(ValueError, match="duplicate"):
        p.validate()


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_validate_rejects_non_finite_coefficient(bad):
    p = _problem_psd_scalar(1.0)
    p.free_scalars.append("u")
    p.equality_rows.append(({("s", "u"): 1.0, ("e", "Q", 0, 0): bad}, 0.0))
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        p.validate()


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_validate_rejects_non_finite_rhs(bad):
    p = _problem_psd_scalar(1.0)
    p.equality_rows.append(({("e", "Q", 0, 0): 2.0}, bad))
    with pytest.raises(ValueError, match="row 1 has a non-finite"):
        p.validate()


def test_validate_names_the_first_undeclared_key():
    # keys are checked in row order, before any value: the first bad key
    # in that order is the one reported, even with a non-finite value about
    p = _problem_psd_scalar(float("nan"))
    p.equality_rows.append(({("e", "Q", 0, 0): 1.0, ("s", "a"): 1.0}, 0.0))
    p.equality_rows.append(({("s", "b"): 1.0, ("s", "a"): 1.0}, 0.0))
    with pytest.raises(ValueError, match="undeclared scalar 'a'"):
        p.validate()
    p.free_scalars.append("a")
    with pytest.raises(ValueError, match="undeclared scalar 'b'"):
        p.validate()
    p.free_scalars.append("b")
    with pytest.raises(ValueError, match="row 0 has a non-finite"):
        p.validate()
