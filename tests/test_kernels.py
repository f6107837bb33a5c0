"""The plain-float kernels against the numpy expressions they replaced:
term-list evaluation, batch evaluation and the RK4 segment run must match
those references to rounding (tolerances below absorb the difference)."""

import numpy as np
import pytest

from swsos import _kernels
from swsos.poly import Polynomial, monomial_basis


def _random_packed(rng, dim=2, deg=6, nterms=12):
    basis = monomial_basis(dim, deg)
    idx = rng.choice(len(basis), size=min(nterms, len(basis)), replace=False)
    coeffs = rng.normal(size=len(idx))
    exps = np.array([basis[i] for i in idx], dtype=np.int64)
    return coeffs, exps


def test_rk4_run_converges_on_linear_decay():
    # xdot = -x with no boundaries
    x0 = np.array([1.0])
    states, code, bidx = _kernels.rk4_smooth_run(
        [((-1.0, (0,)),)], [], x0, 0.01, 2000, 1e-4,
        np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_CONVERGED
    assert bidx == -1
    # ||x|| <= 1e-4 happens at t ~= ln(1e4) ~= 9.21
    assert abs((states.shape[0] - 1) * 0.01 - np.log(1e4)) < 0.05


def test_rk4_run_escape_detection():
    # xdot = +x blows out of the box
    states, code, _ = _kernels.rk4_smooth_run(
        [((1.0, (0,)),)], [], np.array([1.0]), 0.01, 10000, 1e-6,
        np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_ESCAPED
    assert states[-1, 0] > 2.0


def test_rk4_run_boundary_flag():
    # xdot = (1, 0) crossing the chi = x1 variety from the left
    states, code, bidx = _kernels.rk4_smooth_run(
        [((1.0, ()),), ()], [((1.0, (0,)),)], np.array([-0.05, 0.0]), 0.01,
        100, 1e-9, np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 1e-9)
    assert code == _kernels.STOP_BOUNDARY
    assert bidx == 0
    assert states[-2, 0] < 0.0 <= states[-1, 0] + 1e-9


# -- term-list evaluator against the numpy expressions it replaced ------------

def _ref_eval(coeffs, exps, x):
    return float(np.dot(coeffs, np.prod(x[None, :] ** exps, axis=1)))


def _ref_eval_batch(coeffs, exps, X):
    return np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coeffs


def test_eval_poly_batch_matches_numpy_reference():
    rng = np.random.default_rng(1)
    coeffs, exps = _random_packed(rng, dim=3, deg=4)
    X = rng.uniform(-2, 2, size=(500, 3))
    assert np.allclose(_kernels.eval_poly_batch(coeffs, exps, X),
                       _ref_eval_batch(coeffs, exps, X), rtol=1e-12, atol=1e-13)


def test_term_list_matches_numpy_reference():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        for deg in range(9):
            coeffs, exps = _random_packed(rng, dim=dim, deg=deg, nterms=10)
            p = Polynomial(dim, {tuple(e): c for c, e in zip(coeffs, exps.tolist())})
            terms = _kernels.compile_terms(coeffs, exps)
            for _ in range(5):
                x = rng.uniform(-2, 2, size=dim)
                ref = _ref_eval(coeffs, exps, x)
                assert np.isclose(_kernels.eval_terms(terms, x.tolist()), ref,
                                  rtol=1e-13, atol=1e-13)
                assert np.isclose(p(x), ref, rtol=1e-13, atol=1e-13)


def test_compile_terms_expands_exponents():
    terms = _kernels.compile_terms(np.array([2.5]), np.array([[3, 1]]))
    assert terms == ((2.5, (0, 0, 0, 1)),)


def test_term_list_overflows_to_inf():
    cubic = Polynomial.monomial(2, (3, 0), 1.0) + Polynomial.variable(2, 1)
    assert cubic(np.array([1e200, 0.0])) == np.inf


def test_eval_many_edge_cases_match_reference():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(40, 3))
    # x2 appears in no term
    absent = Polynomial(3, {(2, 0, 1): 1.5, (0, 0, 4): -0.5, (1, 0, 0): 2.0})
    const = Polynomial.constant(3, -3.25)
    for p in (absent, const):
        coeffs, exps = p._packed()
        assert np.allclose(p.eval_many(X), _ref_eval_batch(coeffs, exps, X),
                           rtol=1e-13, atol=1e-13)
        assert p.eval_many(np.zeros((0, 3))).shape == (0,)


def _pack(polys):
    # the packed (coeffs, exps, offsets) form the reference loop reads
    packed = [p._packed() for p in polys]
    off = np.cumsum([0] + [len(c) for c, _ in packed])
    if not packed:
        return np.zeros(0), np.zeros((0, 1), dtype=np.int64), off
    return (np.concatenate([c for c, _ in packed]),
            np.vstack([e for _, e in packed]), off)


def _ref_rk4_smooth_run(fc, fe, foff, cc, ce, coff, x0, h, max_steps,
                        ball_stop, box_lo, box_hi, band):
    # the array-per-step numpy loop the term-list kernel replaced
    n = x0.shape[0]
    nb = len(coff) - 1
    states = np.empty((max_steps + 1, n))
    states[0] = x0
    chi_prev = np.empty(nb)
    for b in range(nb):
        chi_prev[b] = _ref_eval(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], x0)

    def field(x):
        out = np.empty(n)
        for k in range(n):
            out[k] = _ref_eval(fc[foff[k]:foff[k + 1]], fe[foff[k]:foff[k + 1]], x)
        return out

    for step in range(max_steps):
        x = states[step]
        if np.sqrt(np.dot(x, x)) <= ball_stop:
            return states[: step + 1], _kernels.STOP_CONVERGED, -1
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        xn = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(xn)) or np.any(xn < box_lo) or np.any(xn > box_hi):
            states[step + 1] = xn
            return states[: step + 2], _kernels.STOP_ESCAPED, -1
        states[step + 1] = xn
        for b in range(nb):
            chi = _ref_eval(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], xn)
            if chi * chi_prev[b] < 0.0 or abs(chi) <= band:
                return states[: step + 2], _kernels.STOP_BOUNDARY, b
            chi_prev[b] = chi
    return states, _kernels.STOP_MAXSTEPS, -1


@pytest.mark.parametrize("rid, theta, x0", [
    (1, (0.5, 0.5), (1.0, 1.0)),        # stays inside for all 500 steps
    (1, (0.0, 1.0), (0.05, 0.4)),       # rotates into the x1 = 0 boundary
    (2, (1.0,), (0.5, -0.6)),
])
def test_rk4_term_list_matches_numpy_reference(quadrant_system, rid, theta, x0):
    F = quadrant_system.field_at(rid, theta)
    chis = [b.chi for b in quadrant_system.boundaries]
    lo, hi = quadrant_system.box
    tail = (np.array(x0), 1e-3, 500, 1e-4, lo, hi, 1e-9)
    s1, c1, b1 = _kernels.rk4_smooth_run(
        [p._term_list() for p in F], [c._term_list() for c in chis], *tail)
    s2, c2, b2 = _ref_rk4_smooth_run(*_pack(F), *_pack(chis), *tail)
    assert (c1, b1) == (c2, b2)
    assert s1.shape == s2.shape
    assert np.allclose(s1, s2, rtol=1e-12, atol=0.0)


def test_rk4_term_list_escape_matches_numpy_reference():
    # xdot = x^3 blows up in finite time and leaves the box
    F = [Polynomial.monomial(1, (3,))]
    tail = (np.array([1.5]), 1e-2, 500, 1e-6, np.array([-4.0]), np.array([4.0]), 1e-9)
    s1, c1, _ = _kernels.rk4_smooth_run([p._term_list() for p in F], [], *tail)
    s2, c2, _ = _ref_rk4_smooth_run(*_pack(F), *_pack([]), *tail)
    assert c1 == c2 == _kernels.STOP_ESCAPED
    assert np.allclose(s1, s2, rtol=1e-12, atol=0.0)
