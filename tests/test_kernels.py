"""The plain-float kernels against the references they replaced.

Term-list evaluation, at one point and on columns, and the RK4 segment
runs match the numpy expressions to rounding (tolerances below absorb the
difference); on columns it equals the one-point evaluation bit for bit.
The generated RK4 kernels and the emitted expressions match the term-list
interpreters they replaced bit for bit: those interpreters are kept here
as references.  Kernels of one exponent structure share one code object
and match the coefficient-literal source they replaced.
"""

import builtins
import dis
import math
import re
import types

import numpy as np
import pytest

from swsos import _kernels
from swsos.poly import Polynomial, PolyVector, monomial_basis


def _random_packed(rng, dim=2, deg=6, nterms=12):
    basis = monomial_basis(dim, deg)
    idx = rng.choice(len(basis), size=min(nterms, len(basis)), replace=False)
    coeffs = rng.normal(size=len(idx))
    exps = np.array([basis[i] for i in idx], dtype=np.int64)
    return coeffs, exps


def test_rk4_run_converges_on_linear_decay():
    # xdot = -x with no boundaries
    x0 = np.array([1.0])
    states, times, _, code = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([((-1.0, (0,)),)], []), x0, 0.0, 20.0, 0.01,
        1e-4, np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_CONVERGED
    assert len(times) == states.shape[0]
    # ||x|| <= 1e-4 happens at t ~= ln(1e4) ~= 9.21
    assert abs((states.shape[0] - 1) * 0.01 - np.log(1e4)) < 0.05


def test_rk4_run_escape_detection():
    # xdot = +x blows out of the box
    states, _, _, code = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([((1.0, (0,)),)], []), np.array([1.0]), 0.0,
        100.0, 0.01, 1e-6, np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_ESCAPED
    assert states[-1, 0] > 2.0


def test_rk4_run_boundary_flag():
    # xdot = (1, 0) crossing the chi = x1 variety from the left
    states, _, _, code = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([((1.0, ()),), ()], [((1.0, (0,)),)]),
        np.array([-0.05, 0.0]), 0.0, 1.0, 0.01, 1e-9, np.array([-2.0, -2.0]),
        np.array([2.0, 2.0]), 1e-9)
    assert code == _kernels.STOP_BOUNDARY
    assert states[-2, 0] < 0.0 <= states[-1, 0] + 1e-9


_DECAY = [((-1.0, (0,)),)]                  # xdot = -x


def test_rk4_run_times_start_at_t0():
    # step k of a run started at t0 ends at t0 + k*h, as the plain-float
    # interpreter below has it
    tail = (np.array([1.0]), 0.75, 1.25, 0.01, 1e-4, np.array([-2.0]),
            np.array([2.0]), 1e-9)
    result = _kernels.rk4_smooth_run(_kernels.smooth_kernel(_DECAY, []), *tail)
    assert _assert_smooth_exact(result, _DECAY, [], *tail) == \
        _kernels.STOP_MAXSTEPS
    states, times, hs, _ = result
    assert len(times) == states.shape[0] == 51
    assert times == [0.75 + k * 0.01 for k in range(51)]
    assert hs == 0.01


def test_rk4_run_ends_on_an_off_grid_t_end():
    # 0.123 is not on the 0.01 grid: the last step is the remainder
    tail = (np.array([1.0]), 0.0, 0.123, 0.01, 1e-4, np.array([-2.0]),
            np.array([2.0]), 1e-9)
    result = _kernels.rk4_smooth_run(_kernels.smooth_kernel(_DECAY, []), *tail)
    assert _assert_smooth_exact(result, _DECAY, [], *tail) == \
        _kernels.STOP_MAXSTEPS
    states, times, hs, _ = result
    assert times[:-1] == [k * 0.01 for k in range(13)]
    assert hs == 0.123 - times[-2]
    assert times[-1] == times[-2] + hs == 0.123
    assert states.shape[0] == 14


# -- term-list evaluator against the numpy expressions it replaced ------------

def _ref_eval(coeffs, exps, x):
    return float(np.dot(coeffs, np.prod(x[None, :] ** exps, axis=1)))


def _ref_eval_batch(coeffs, exps, X):
    return np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coeffs


def _coeffs_exps(p):
    # p as packed (coeffs, exps) arrays, in its grlex term order
    monos = p.support()
    return (np.array([p.terms[m] for m in monos], dtype=np.float64),
            np.array(monos, dtype=np.int64).reshape(len(monos), p.dim))


def test_eval_many_matches_numpy_reference():
    rng = np.random.default_rng(1)
    coeffs, exps = _random_packed(rng, dim=3, deg=4)
    p = Polynomial(3, {tuple(e): c for c, e in zip(coeffs, exps.tolist())})
    X = rng.uniform(-2, 2, size=(500, 3))
    assert np.allclose(p.eval_many(X), _ref_eval_batch(coeffs, exps, X),
                       rtol=1e-12, atol=1e-13)


def test_eval_many_equals_scalar_call_bit_for_bit():
    rng = np.random.default_rng(5)
    polys = []
    for dim in (1, 2, 3):
        for deg in range(7):
            coeffs, exps = _random_packed(rng, dim=dim, deg=deg, nterms=10)
            polys.append(Polynomial(dim, {tuple(e): c for c, e
                                          in zip(coeffs, exps.tolist())}))
    polys += [
        Polynomial(2, {(1, 0): 1e400, (1, 1): -0.5, (0, 0): 0.25}),
        Polynomial.constant(3, -3.25),
        Polynomial.zero(2),
        Polynomial(3, {(2, 0, 1): 1.5, (0, 0, 4): -0.5}),   # x2 in no term
    ]
    for p in polys:
        X = rng.uniform(-2, 2, size=(60, p.dim))
        X[:3] = 0.0
        X[3] = -0.0
        big = rng.uniform(-2, 2, size=(60, 2 * p.dim))
        for pts in (X, np.asfortranarray(X), big[:, ::2], X[::3]):
            got = p.eval_many(pts)
            assert got.shape == (pts.shape[0],)
            # repr tells every float apart, -0.0 from 0.0 and nan included
            assert [repr(v) for v in got.tolist()] == [repr(p(x)) for x in pts]
        # one row takes eval_terms on its floats, with the same bits
        for x in X:
            got = p.eval_many(x[None])
            assert got.shape == (1,) and repr(got.tolist()) == repr([p(x)])
        assert p.eval_many(np.zeros((0, p.dim))).shape == (0,)


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
    cubic = Polynomial(2, {(3, 0): 1.0}) + Polynomial.variable(2, 1)
    assert cubic(np.array([1e200, 0.0])) == np.inf


def test_eval_many_edge_cases_match_reference():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(40, 3))
    # x2 appears in no term
    absent = Polynomial(3, {(2, 0, 1): 1.5, (0, 0, 4): -0.5, (1, 0, 0): 2.0})
    const = Polynomial.constant(3, -3.25)
    for p in (absent, const):
        coeffs, exps = _coeffs_exps(p)
        assert np.allclose(p.eval_many(X), _ref_eval_batch(coeffs, exps, X),
                           rtol=1e-13, atol=1e-13)
        assert p.eval_many(np.zeros((0, 3))).shape == (0,)


def _pack(polys):
    # the packed (coeffs, exps, offsets) form the reference loop reads
    packed = [_coeffs_exps(p) for p in polys]
    off = np.cumsum([0] + [len(c) for c, _ in packed])
    if not packed:
        return np.zeros(0), np.zeros((0, 1), dtype=np.int64), off
    return (np.concatenate([c for c, _ in packed]),
            np.vstack([e for _, e in packed]), off)


def _ref_rk4_smooth_run(fc, fe, foff, cc, ce, coff, x0, t0, t_end, h,
                        ball_stop, box_lo, box_hi, band):
    # the array-per-step numpy loop the term-list kernel replaced, with the
    # kernel's time rule (step i ends at t0 + i*h, or on t_end if that
    # passes; a run that stops within 1e-15 of t_end ends on it) and event
    # rule (a sign change of chi, or a landing on zero; a boundary within
    # band of x0 starts with sign 0)
    n = x0.shape[0]
    nb = len(coff) - 1
    states, times = [x0], [t0]
    chi_prev = np.empty(nb)
    for b in range(nb):
        chi_prev[b] = _ref_eval(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], x0)
        if abs(chi_prev[b]) <= band:
            chi_prev[b] = 0.0

    def field(x):
        out = np.empty(n)
        for k in range(n):
            out[k] = _ref_eval(fc[foff[k]:foff[k + 1]], fe[foff[k]:foff[k + 1]], x)
        return out

    t, hs, step = t0, h, 0
    while t < t_end - 1e-15:
        x = states[-1]
        if np.sqrt(np.dot(x, x)) <= ball_stop:
            return np.array(states), times, hs, _kernels.STOP_CONVERGED
        step += 1
        t_next = t0 + step * h
        if t_next > t_end:
            hs = t_end - t
            t_next = t + hs
        k1 = field(x)
        k2 = field(x + 0.5 * hs * k1)
        k3 = field(x + 0.5 * hs * k2)
        k4 = field(x + hs * k3)
        xn = x + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t_next
        states.append(xn)
        times.append(t)
        if not np.all(np.isfinite(xn)) or np.any(xn < box_lo) or np.any(xn > box_hi):
            return np.array(states), times, hs, _kernels.STOP_ESCAPED
        for b in range(nb):
            chi = _ref_eval(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], xn)
            if chi * chi_prev[b] < 0.0 or (chi == 0.0 and chi_prev[b] != 0.0):
                return np.array(states), times, hs, _kernels.STOP_BOUNDARY
            chi_prev[b] = chi
    times[-1] = t_end
    return np.array(states), times, hs, _kernels.STOP_MAXSTEPS


_SMOOTH_CASES = [
    (1, (0.5, 0.5), (1.0, 1.0)),        # stays inside for all 500 steps
    (1, (0.0, 1.0), (0.05, 0.4)),       # rotates into the x1 = 0 boundary
    (2, (1.0,), (0.5, -0.6)),
]


@pytest.mark.parametrize("rid, theta, x0", _SMOOTH_CASES)
def test_rk4_term_list_matches_numpy_reference(quadrant_system, rid, theta, x0):
    F = quadrant_system.field_at(rid, theta)
    chis = [b.chi for b in quadrant_system.boundaries]
    lo, hi = quadrant_system.box
    tail = (np.array(x0), 0.0, 0.5, 1e-3, 1e-4, lo, hi, 1e-9)
    s1, t1, h1, c1 = _kernels.rk4_smooth_run(_kernels.smooth_kernel(
        [p._term_list() for p in F], [c._term_list() for c in chis]), *tail)
    s2, t2, h2, c2 = _ref_rk4_smooth_run(*_pack(F), *_pack(chis), *tail)
    assert (c1, t1, h1) == (c2, t2, h2)
    assert s1.shape == s2.shape
    assert np.allclose(s1, s2, rtol=1e-12, atol=0.0)


def test_rk4_term_list_escape_matches_numpy_reference():
    # xdot = x^3 blows up in finite time and leaves the box
    F = [Polynomial(1, {(3,): 1.0})]
    tail = (np.array([1.5]), 0.0, 5.0, 1e-2, 1e-6, np.array([-4.0]),
            np.array([4.0]), 1e-9)
    s1, t1, _, c1 = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([p._term_list() for p in F], []), *tail)
    s2, t2, _, c2 = _ref_rk4_smooth_run(*_pack(F), *_pack([]), *tail)
    assert c1 == c2 == _kernels.STOP_ESCAPED
    assert t1 == t2
    assert np.allclose(s1, s2, rtol=1e-12, atol=0.0)


# -- RK4 sliding segment ----------------------------------------------------------

# boundary chi = x2 between x2 >= 0 (field F_i) and x2 <= 0 (field F_j)
_CHI = ((1.0, (1,)),)
_GRAD = [(), ((1.0, ()),)]                 # (0, 1)
_BOX = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def _const(c):
    return ((float(c), ()),)


def _slide(fi, fj, x0, t_end=1.0, h=0.01, ball_stop=1e-6, chi=_CHI,
           grad=_GRAD, band=1e-8):
    # event_tol 1e-9
    return _kernels.rk4_sliding_run(_kernels.sliding_kernel(grad, fi, fj, chi),
                                    np.array(x0), 0.0, t_end, h, ball_stop,
                                    *_BOX, 1e-9, band)


def test_sliding_field_formula():
    # n = (0,1), F_i = (2,-1), F_j = (1,3): alpha = 3/4, F_s = (7/4, 0)
    fs, alpha = _kernels.sliding_field([0.0, 1.0], [2.0, -1.0], [1.0, 3.0])
    assert alpha == 0.75
    assert fs == [1.75, 0.0]
    # tangency: |<n, F_j - F_i>| under 1e-12
    assert _kernels.sliding_field([0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]) is None
    assert _kernels.sliding_field([0.0, 1.0], [1.0, 0.0], [-1.0, 5e-13]) is None
    assert _kernels.sliding_field([0.0, 1.0], [1.0, 0.0], [-1.0, 2e-12]) is not None


def test_sliding_run_reaches_t_end():
    # opposing constant fields: F_s = 0, alpha = 1/2 at every step
    states, times, alphas, x, t, code = _slide(
        [_const(1), _const(-1)], [_const(-1), _const(1)], (0.5, 0.0),
        t_end=0.105)
    assert code == _kernels.STOP_MAXSTEPS
    # the time rule: step k ends at k*h, the last one on t_end
    assert times == [k * 0.01 for k in range(1, 11)] + [0.105]
    assert t == times[-1] and x == states[-1].tolist()
    assert alphas == [0.5] * 11
    assert np.array_equal(states, np.tile([0.5, 0.0], (11, 1)))


def test_sliding_run_projects_back_onto_variety():
    # chi = x2 + x2^2 with opposing fields along its normal (0, 1 + 2*x2):
    # F_s = 0, so the step only projects.  From x2 = 0.2 three Newton steps
    # leave |chi| ~ 6e-7, above event_tol, and the projection stops there.
    chi = ((1.0, (1,)), (1.0, (1, 1)))
    grad = [(), ((1.0, ()), (2.0, (1,)))]
    states, *_ = _slide([_const(1), _const(-1)], [_const(-1), _const(1)],
                        (0.5, 0.2), t_end=0.01, chi=chi, grad=grad, band=0.5)
    x2 = 0.2
    for _ in range(3):
        g = 1.0 + 2.0 * x2
        x2 = x2 - (x2 + x2 * x2) / (g * g) * g
    assert states.tolist() == [[0.5, x2]]
    assert 1e-9 < abs(x2 + x2 * x2) < 1e-6


def test_sliding_run_records_alpha_of_step_start():
    # F_i = (1, -1), F_j = (1, x1): alpha = x1 / (x1 + 1), F_s = (1, 0)
    fi = [_const(1), _const(-1)]
    fj = [_const(1), ((1.0, (0,)),)]
    states, times, alphas, *_ = _slide(fi, fj, (0.5, 0.0), t_end=0.1)
    starts = [[0.5, 0.0]] + states[:-1].tolist()
    assert alphas == [_kernels.sliding_field(
        [0.0, 1.0], [1.0, -1.0], [1.0, s[0]])[1] for s in starts]
    assert alphas[0] == 0.5 / 1.5 and alphas[-1] > alphas[0]


def test_sliding_run_converges():
    # F_i = (-x1, -1), F_j = (-x1, 1): F_s = (-x1, 0)
    fi = [((-1.0, (0,)),), _const(-1)]
    fj = [((-1.0, (0,)),), _const(1)]
    states, times, alphas, x, t, code = _slide(fi, fj, (1e-3, 0.0), t_end=10.0,
                                               ball_stop=1e-4)
    assert code == _kernels.STOP_CONVERGED
    # the converged state is the last accepted one
    assert x == states[-1].tolist() and t == times[-1]
    assert np.linalg.norm(states[-1]) <= 1e-4 < np.linalg.norm(states[-2])
    assert abs(t - np.log(10.0)) < 0.01


def test_sliding_run_escapes():
    # F_i = (1, -1), F_j = (1, 1): F_s = (1, 0) leaves the box at x1 = 2
    states, times, alphas, x, t, code = _slide(
        [_const(1), _const(-1)], [_const(1), _const(1)], (1.5, 0.0))
    assert code == _kernels.STOP_ESCAPED
    # the escaping state is the stop state, not an accepted row
    assert x[0] > 2.0 and states[:, 0].max() <= 2.0
    assert len(times) == states.shape[0] and t > times[-1]


def test_sliding_run_off_variety():
    states, times, alphas, x, t, code = _slide(
        [_const(1), _const(-1)], [_const(-1), _const(1)], (0.5, 1e-3))
    assert code == _kernels.STOP_OFF_VARIETY
    assert states.shape == (0, 2) and times == [] and alphas == []
    assert x == [0.5, 1e-3] and t == 0.0


def test_sliding_run_tangency_at_step_start():
    # F_i = (1, 0), F_j = (-1, 0): <n, F_j - F_i> = 0
    states, times, _, x, t, code = _slide(
        [_const(1), ()], [_const(-1), ()], (0.5, 0.0))
    assert code == _kernels.STOP_TANGENCY
    assert times == [] and x == [0.5, 0.0] and t == 0.0


def test_sliding_run_tangency_at_a_later_stage():
    # F_i = (1, -x1), F_j = (1, x1): <n, F_j - F_i> = 2*x1, nonzero at
    # x1 = -0.25 (alpha = 1/2, F_s = (1, 0)) and zero at the second stage,
    # x1 + (h/2)*1 = 0 with h = 0.5
    fi = [_const(1), ((-1.0, (0,)),)]
    fj = [_const(1), ((1.0, (0,)),)]
    states, times, _, x, t, code = _slide(fi, fj, (-0.25, 0.0), h=0.5)
    assert code == _kernels.STOP_TANGENCY
    assert times == [] and x == [-0.25, 0.0] and t == 0.0


def test_sliding_run_alpha_outside_unit_interval():
    # F_i = (0, -1), F_j = (0, -2) both point down: alpha = -2 / -1 = 2
    states, times, _, x, t, code = _slide(
        [(), _const(-1)], [(), _const(-2)], (0.5, 0.0))
    assert code == _kernels.STOP_ALPHA
    assert times == [] and x == [0.5, 0.0] and t == 0.0


def _ref_rk4_sliding_run(grad, Fi, Fj, chi, x0, t0, t_end, h, ball_stop,
                         box_lo, box_hi, event_tol, band):
    # the numpy-vector loop simulate ran per sliding step before the kernel,
    # with the smooth references' time rule
    def f_slide(x):
        n, fi, fj = grad(x), Fi(x), Fj(x)
        den = float(np.dot(n, fj - fi))
        if abs(den) < 1e-12:
            return None
        a = float(np.dot(n, fj)) / den
        return a * fi + (1.0 - a) * fj, a

    x, t = np.asarray(x0, dtype=float), t0
    states, times, alphas = [], [], []
    step = 0

    def done(code):
        return np.array(states).reshape(-1, x.shape[0]), times, alphas, x, t, code

    while t < t_end - 1e-15:
        if np.linalg.norm(x) <= ball_stop:
            return done(_kernels.STOP_CONVERGED)
        if abs(chi(x)) > band:
            return done(_kernels.STOP_OFF_VARIETY)
        r = f_slide(x)
        if r is None:
            return done(_kernels.STOP_TANGENCY)
        k1, alpha = r
        if not 0.0 <= alpha <= 1.0:
            return done(_kernels.STOP_ALPHA)
        step += 1
        t_next, hs = t0 + step * h, h
        if t_next > t_end:
            hs = t_end - t
            t_next = t + hs
        r2 = f_slide(x + 0.5 * hs * k1)
        r3 = r2 and f_slide(x + 0.5 * hs * r2[0])
        r4 = r3 and f_slide(x + hs * r3[0])
        if r4 is None:
            return done(_kernels.STOP_TANGENCY)
        xn = x + (hs / 6.0) * (k1 + 2 * r2[0] + 2 * r3[0] + r4[0])
        for _ in range(3):
            c = chi(xn)
            if abs(c) <= event_tol:
                break
            n = grad(xn)
            nn = float(np.dot(n, n))
            if nn == 0.0:
                break
            xn = xn - (c / nn) * n
        t = t_next
        x = xn
        if not (np.all(x >= box_lo) and np.all(x <= box_hi)):
            return done(_kernels.STOP_ESCAPED)
        states.append(x)
        times.append(t)
        alphas.append(alpha)
    t = t_end
    if times:
        times[-1] = t
    return done(_kernels.STOP_MAXSTEPS)


_SLIDING_CASES = [
    # quadrant-cubic at theta = 1 from its sliding entry on x1*x2 = 0
    ("x1*x2", ("-x1", "-x2^3"), ("-0.5*x2", "x1^3 - x2^3"),
     (-2.0882007185443494, -2.6728439166817664e-10), 0.7005,
     _kernels.STOP_MAXSTEPS),
    # alpha = 1 / (2 - x1) leaves [0, 1] once x1 passes 1
    ("x2", ("1", "x1 - 1"), ("1", "1"), (0.5, 0.0), 2.0, _kernels.STOP_ALPHA),
]


def _sliding_case(chi, fi, fj, x0, t_end):
    from swsos.poly import parse_polynomial, parse_vector
    chi = parse_polynomial(chi, 2)
    Fi, Fj, grad = parse_vector(fi, 2), parse_vector(fj, 2), chi.gradient()
    tail = (np.array(x0), 0.0, t_end, 1e-3, 1e-4, np.array([-3.0, -3.0]),
            np.array([3.0, 3.0]), 1e-9, 1e-8)
    return grad, Fi, Fj, chi, tail


@pytest.mark.parametrize("chi, fi, fj, x0, t_end, code", _SLIDING_CASES)
def test_rk4_sliding_run_matches_numpy_reference(chi, fi, fj, x0, t_end, code):
    grad, Fi, Fj, chi, tail = _sliding_case(chi, fi, fj, x0, t_end)
    s1, t1, a1, x1, end1, c1 = _kernels.rk4_sliding_run(
        _kernels.sliding_kernel(
            *([p._term_list() for p in v] for v in (grad, Fi, Fj)),
            chi._term_list()), *tail)
    s2, t2, a2, x2, end2, c2 = _ref_rk4_sliding_run(grad, Fi, Fj, chi, *tail)
    assert c1 == c2 == code
    assert t1 == t2 and end1 == end2 and len(t1) > 400
    assert np.allclose(a1, a2, rtol=1e-12, atol=0.0)
    assert np.allclose(s1, s2, rtol=1e-12, atol=1e-15)
    assert np.allclose(x1, x2, rtol=1e-12, atol=1e-15)


# -- generated kernels against the term-list interpreters they replaced -------

def _interp_rk4_smooth_run(fields, chis, x0, t0, t_end, h, ball_stop, box_lo,
                           box_hi, band):
    # the interpreted smooth segment loop, term list by term list; step i
    # ends at t0 + i*h, a step that would pass t_end ends on it, and a run
    # that stops within 1e-15 of t_end ends on it
    n = len(x0)
    nb = len(chis)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = hs = float(h)
    t0 = t = float(t0)
    cols = range(n)
    eval_terms = _kernels.eval_terms

    x = np.asarray(x0, dtype=np.float64).tolist()
    flat, times = list(x), [t]

    def result(code):
        return np.array(flat).reshape(-1, n), times, hs, code

    # a boundary within band of x0 has no side yet: sign 0
    chi_prev = [0.0 if abs(c) <= band else c
                for c in (eval_terms(c, x) for c in chis)]
    step = 0
    while t < t_end - 1e-15:
        if math.sqrt(sum(v * v for v in x)) <= ball_stop:
            return result(_kernels.STOP_CONVERGED)
        step += 1
        t_next = t0 + step * h
        if t_next > t_end:
            hs = t_end - t
            t_next = t + hs
        hh = 0.5 * hs
        k1 = [eval_terms(f, x) for f in fields]
        xs = [x[k] + hh * k1[k] for k in cols]
        k2 = [eval_terms(f, xs) for f in fields]
        xs = [x[k] + hh * k2[k] for k in cols]
        k3 = [eval_terms(f, xs) for f in fields]
        xs = [x[k] + hs * k3[k] for k in cols]
        k4 = [eval_terms(f, xs) for f in fields]
        h6 = hs / 6.0
        xn = [x[k] + h6 * (k1[k] + 2 * k2[k] + 2 * k3[k] + k4[k]) for k in cols]
        t = t_next
        flat.extend(xn)
        times.append(t)
        for k in cols:
            v = xn[k]
            if not math.isfinite(v) or v < lo[k] or v > hi[k]:
                return result(_kernels.STOP_ESCAPED)
        for b in range(nb):
            chi = eval_terms(chis[b], xn)
            if chi * chi_prev[b] < 0.0 or (chi == 0.0 and chi_prev[b] != 0.0):
                return result(_kernels.STOP_BOUNDARY)
            chi_prev[b] = chi
        x = xn
    times[-1] = t_end
    return result(_kernels.STOP_MAXSTEPS)


def _interp_rk4_sliding_run(grad, fi, fj, chi, x0, t0, t_end, h, ball_stop,
                            box_lo, box_hi, event_tol, band, exits=None):
    # the interpreted sliding segment loop, term list by term list, on the
    # smooth interpreter's time rule, with the projection as the loop it
    # was before the kernel unrolled it; exits, when a list, gets each
    # step's projection exit: the Newton steps taken (0 to 3), or
    # "zero normal"
    n = len(x0)
    cols = range(n)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = float(h)
    t0 = t = float(t0)
    t_stop = t_end - 1e-15
    x = np.asarray(x0, dtype=np.float64).tolist()
    flat, times, alphas = [], [], []
    eval_terms = _kernels.eval_terms

    def field(xs):
        return _kernels.sliding_field([eval_terms(p, xs) for p in grad],
                                      [eval_terms(p, xs) for p in fi],
                                      [eval_terms(p, xs) for p in fj])

    code = _kernels.STOP_MAXSTEPS
    step = 0
    while t < t_stop:
        if math.sqrt(sum(v * v for v in x)) <= ball_stop:
            code = _kernels.STOP_CONVERGED
            break
        if abs(eval_terms(chi, x)) > band:
            code = _kernels.STOP_OFF_VARIETY
            break
        r = field(x)
        if r is None:
            code = _kernels.STOP_TANGENCY
            break
        k1, alpha = r
        if not 0.0 <= alpha <= 1.0:
            code = _kernels.STOP_ALPHA
            break
        step += 1
        t_next, hs = t0 + step * h, h
        if t_next > t_end:
            hs = t_end - t
            t_next = t + hs
        hh = 0.5 * hs
        ks = [k1]
        for hk in (hh, hh, hs):
            r = field([x[k] + hk * ks[-1][k] for k in cols])
            if r is None:
                break
            ks.append(r[0])
        if r is None:
            code = _kernels.STOP_TANGENCY
            break
        k1, k2, k3, k4 = ks
        h6 = hs / 6.0
        xn = [x[k] + h6 * (k1[k] + 2 * k2[k] + 2 * k3[k] + k4[k]) for k in cols]
        taken = 3
        for newton in range(3):
            c = eval_terms(chi, xn)
            if abs(c) <= event_tol:
                taken = newton
                break
            g = [eval_terms(p, xn) for p in grad]
            nn = sum(v * v for v in g)
            if nn == 0.0:
                taken = "zero normal"
                break
            s = c / nn
            xn = [xn[k] - s * g[k] for k in cols]
        if exits is not None:
            exits.append(taken)
        t = t_next
        x = xn
        if not all(lo[k] <= x[k] <= hi[k] for k in cols):
            code = _kernels.STOP_ESCAPED
            break
        flat.extend(x)
        times.append(t)
        alphas.append(alpha)
    if code == _kernels.STOP_MAXSTEPS:
        t = t_end
        if times:
            times[-1] = t
    return np.array(flat).reshape(-1, n), times, alphas, x, t, code


def _assert_smooth_exact(result, fields, chis, *tail):
    # result: rk4_smooth_run on the kernel of fields and chis, with tail
    s1, t1, h1, c1 = result
    s2, t2, h2, c2 = _interp_rk4_smooth_run(fields, chis, *tail)
    assert c1 == c2
    # a nan state escapes as the last row of both
    assert s1.shape == s2.shape and np.array_equal(s1, s2, equal_nan=True)
    assert t1 == t2 and h1 == h2
    return c1


def _assert_sliding_exact(result, grad, fi, fj, chi, *tail):
    # result: rk4_sliding_run on the kernel of grad, fi, fj and chi, with tail
    s1, t1, a1, x1, end1, c1 = result
    s2, t2, a2, x2, end2, c2 = _interp_rk4_sliding_run(grad, fi, fj, chi, *tail)
    assert c1 == c2
    assert s1.shape == s2.shape and np.array_equal(s1, s2)
    assert t1 == t2 and a1 == a2 and x1 == x2 and end1 == end2
    return c1


def _smooth_exact(fields, chis, *tail):
    result = _kernels.rk4_smooth_run(_kernels.smooth_kernel(fields, chis), *tail)
    return _assert_smooth_exact(result, fields, chis, *tail)


def _sliding_exact(grad, fi, fj, chi, *tail):
    result = _kernels.rk4_sliding_run(
        _kernels.sliding_kernel(grad, fi, fj, chi), *tail)
    return _assert_sliding_exact(result, grad, fi, fj, chi, *tail)


def _terms(vec):
    return [p._term_list() for p in vec]


@pytest.mark.parametrize("rid, theta, x0", _SMOOTH_CASES)
def test_smooth_kernel_bit_identical_to_interpreter(quadrant_system, rid,
                                                    theta, x0):
    F = quadrant_system.field_at(rid, theta)
    chis = [b.chi._term_list() for b in quadrant_system.boundaries]
    lo, hi = quadrant_system.box
    _smooth_exact(_terms(F), chis, np.array(x0), 0.0, 0.5, 1e-3, 1e-4, lo, hi,
                  1e-9)


@pytest.mark.parametrize("fields, chis, x0, h, steps, ball_stop, box, code", [
    # the cases of the tests above: decay, blow-up, x1 = 0 crossing, x^3
    ([((-1.0, (0,)),)], [], (1.0,), 0.01, 2000, 1e-4, 2.0,
     _kernels.STOP_CONVERGED),
    ([((1.0, (0,)),)], [], (1.0,), 0.01, 10000, 1e-6, 2.0,
     _kernels.STOP_ESCAPED),
    ([((1.0, ()),), ()], [((1.0, (0,)),)], (-0.05, 0.0), 0.01, 100, 1e-9, 2.0,
     _kernels.STOP_BOUNDARY),
    ([((1.0, (0, 0, 0)),)], [], (1.5,), 1e-2, 500, 1e-6, 4.0,
     _kernels.STOP_ESCAPED),
])
def test_smooth_kernel_bit_identical_on_unit_cases(fields, chis, x0, h, steps,
                                                   ball_stop, box, code):
    # a horizon of `steps` steps from t0 = 0
    n = len(x0)
    assert _smooth_exact(fields, chis, np.array(x0), 0.0, steps * h, h,
                         ball_stop, np.full(n, -box), np.full(n, box),
                         1e-9) == code


@pytest.mark.parametrize("x0, band, code, rows", [
    # 1e-10 is within the band: no side at the start, so the sign change of
    # the first step is no event
    ((1e-10, 0.0), 1e-9, _kernels.STOP_MAXSTEPS, 5),
    # outside the band, the same step is one
    ((1e-10, 0.0), 1e-11, _kernels.STOP_BOUNDARY, 2),
    # landing on chi = 0 from a side is an event
    ((0.5, 0.0), 1e-9, _kernels.STOP_BOUNDARY, 3),
    # leaving chi = 0 is none, whatever the band
    ((0.0, 0.0), 0.0, _kernels.STOP_MAXSTEPS, 5),
])
def test_smooth_kernel_event_rule(x0, band, code, rows):
    # xdot = (-1, 0) across chi = x1 in steps of 0.25 to t = 1
    fields, chis = [_const(-1), ()], [((1.0, (0,)),)]
    tail = (np.array(x0), 0.0, 1.0, 0.25, -1.0, *_BOX, band)
    assert _smooth_exact(fields, chis, *tail) == code
    states = _kernels.rk4_smooth_run(_kernels.smooth_kernel(fields, chis),
                                     *tail)[0]
    assert len(states) == rows


@pytest.mark.parametrize("chi, fi, fj, x0, t_end, code", _SLIDING_CASES)
def test_sliding_kernel_bit_identical_to_interpreter(chi, fi, fj, x0, t_end,
                                                     code):
    grad, Fi, Fj, chi, tail = _sliding_case(chi, fi, fj, x0, t_end)
    assert _sliding_exact(_terms(grad), _terms(Fi), _terms(Fj),
                          chi._term_list(), *tail) == code


@pytest.mark.parametrize("fi, fj, x0, kw, code", [
    # the cases of the _slide tests above, one per exit
    ([_const(1), _const(-1)], [_const(-1), _const(1)], (0.5, 0.0),
     {"t_end": 0.105}, _kernels.STOP_MAXSTEPS),
    ([_const(1), _const(-1)], [_const(-1), _const(1)], (0.5, 0.2),
     {"t_end": 0.01, "chi": ((1.0, (1,)), (1.0, (1, 1))),
      "grad": [(), ((1.0, ()), (2.0, (1,)))], "band": 0.5},
     _kernels.STOP_MAXSTEPS),
    ([_const(1), _const(-1)], [_const(1), ((1.0, (0,)),)], (0.5, 0.0),
     {"t_end": 0.1}, _kernels.STOP_MAXSTEPS),
    ([((-1.0, (0,)),), _const(-1)], [((-1.0, (0,)),), _const(1)], (1e-3, 0.0),
     {"t_end": 10.0, "ball_stop": 1e-4}, _kernels.STOP_CONVERGED),
    ([_const(1), _const(-1)], [_const(1), _const(1)], (1.5, 0.0), {},
     _kernels.STOP_ESCAPED),
    ([_const(1), _const(-1)], [_const(-1), _const(1)], (0.5, 1e-3), {},
     _kernels.STOP_OFF_VARIETY),
    ([_const(1), ()], [_const(-1), ()], (0.5, 0.0), {},
     _kernels.STOP_TANGENCY),
    ([_const(1), ((-1.0, (0,)),)], [_const(1), ((1.0, (0,)),)], (-0.25, 0.0),
     {"h": 0.5}, _kernels.STOP_TANGENCY),
    ([(), _const(-1)], [(), _const(-2)], (0.5, 0.0), {}, _kernels.STOP_ALPHA),
])
def test_sliding_kernel_bit_identical_on_unit_cases(fi, fj, x0, kw, code):
    args = {"t_end": 1.0, "h": 0.01, "ball_stop": 1e-6, "chi": _CHI,
            "grad": _GRAD, "band": 1e-8, **kw}
    assert _sliding_exact(
        args["grad"], fi, fj, args["chi"], np.array(x0), 0.0, args["t_end"],
        args["h"], args["ball_stop"], *_BOX, 1e-9, args["band"]) == code


# the unit circle x1^2 + x2^2 - 1 = 0 between F_i = rotation - x and
# F_j = rotation + x: alpha = 1/2 and the sliding field is the rotation
# (-x2, x1), which coarse RK4 steps leave the circle by about h^6 / 144
_CIRCLE = ((1.0, (0, 0)), (1.0, (1, 1)), (-1.0, ()))
_CIRCLE_GRAD = [((2.0, (0,)),), ((2.0, (1,)),)]
_SPIRAL_IN = [((-1.0, (1,)), (-1.0, (0,))), ((1.0, (0,)), (-1.0, (1,)))]
_SPIRAL_OUT = [((-1.0, (1,)), (1.0, (0,))), ((1.0, (0,)), (1.0, (1,)))]
# x2^2 + 2^-30, whose gradient (0, 2*x2) vanishes at x2 = 0, where the
# value is 2^-30: from x2 = 2^-15 one Newton step lands there exactly
_OFFSET_PARABOLA = ((1.0, (1, 1)), (2.0 ** -30, ()))
_PARABOLA_GRAD = [(), ((2.0, (1,)),)]


@pytest.mark.parametrize("grad, fi, fj, chi, x0, h, event_tol, exits, code", [
    # one, two and up to three Newton steps
    (_CIRCLE_GRAD, _SPIRAL_IN, _SPIRAL_OUT, _CIRCLE, (1.0, 0.0), 0.5, 1e-6,
     {1}, _kernels.STOP_MAXSTEPS),
    (_CIRCLE_GRAD, _SPIRAL_IN, _SPIRAL_OUT, _CIRCLE, (1.0, 0.0), 0.5, 1e-9,
     {2}, _kernels.STOP_MAXSTEPS),
    (_CIRCLE_GRAD, _SPIRAL_IN, _SPIRAL_OUT, _CIRCLE, (1.0, 0.0), 0.05, 0.0,
     {1, 2, 3}, _kernels.STOP_MAXSTEPS),
    # the gradient vanishes after one step: the projection stops there, and
    # the next step starts tangent
    (_PARABOLA_GRAD, [_const(1), _const(-1)], [_const(1), _const(1)],
     _OFFSET_PARABOLA, (0.5, 2.0 ** -15), 0.25, 1e-10, {"zero normal"},
     _kernels.STOP_TANGENCY),
    # a nan chi is not within event_tol: all three steps are taken, the
    # state turns nan and escapes
    (_GRAD, [_const(1), _const(-1)], [_const(-1), _const(1)],
     ((1.0, (1,)), (math.nan, (0, 0))), (0.5, 0.0), 0.25, 1e-9, {3},
     _kernels.STOP_ESCAPED),
], ids=["one-step", "two-steps", "three-steps", "zero-normal", "nan-chi"])
def test_unrolled_projection_matches_the_loop(grad, fi, fj, chi, x0, h,
                                              event_tol, exits, code):
    # the kernel's nested Newton steps against the loop form the
    # interpreter keeps, on the exits no corpus run reaches
    tail = (np.array(x0), 0.0, 3.0, h, 1e-6, np.array([-3.0, -3.0]),
            np.array([3.0, 3.0]), event_tol, 1e-3)
    seen = []
    s2, t2, a2, x2, end2, c2 = _interp_rk4_sliding_run(grad, fi, fj, chi,
                                                       *tail, seen)
    assert set(seen) == exits and c2 == code
    s1, t1, a1, x1, end1, c1 = _kernels.rk4_sliding_run(
        _kernels.sliding_kernel(grad, fi, fj, chi), *tail)
    assert c1 == c2
    assert s1.shape == s2.shape and np.array_equal(s1, s2, equal_nan=True)
    assert t1 == t2 and a1 == a2 and end1 == end2
    assert repr(x1) == repr(x2)


def test_kernels_bit_identical_on_chattering_run(quadrant_system, monkeypatch):
    # every segment simulate runs from (0.3, -2) at theta = 1: a smooth
    # segment up to its crossing of x1*x2 = 0, and sliding on it to t_end
    from swsos.cli import _theta_table
    from swsos.sim import SimConfig, simulate

    sources = {}            # compiled kernel -> the term lists it came from
    codes = []

    def compiled(factory):
        def build(*terms):
            kernel = factory(*terms)
            sources[kernel] = terms
            return kernel
        return build

    def smooth_run(kernel, *tail):
        result = smooth(kernel, *tail)
        codes.append(_assert_smooth_exact(result, *sources[kernel], *tail))
        return result

    def sliding_run(kernel, *tail):
        result = sliding(kernel, *tail)
        codes.append(_assert_sliding_exact(result, *sources[kernel], *tail))
        return result

    smooth, sliding = _kernels.rk4_smooth_run, _kernels.rk4_sliding_run
    monkeypatch.setattr(_kernels, "smooth_kernel",
                        compiled(_kernels.smooth_kernel))
    monkeypatch.setattr(_kernels, "sliding_kernel",
                        compiled(_kernels.sliding_kernel))
    monkeypatch.setattr(_kernels, "rk4_smooth_run", smooth_run)
    monkeypatch.setattr(_kernels, "rk4_sliding_run", sliding_run)
    cfg = SimConfig(t_end=2.0, theta=_theta_table(quadrant_system, (1.0, 0.0)))
    traj = simulate(quadrant_system, (0.3, -2.0), cfg)
    assert traj.event_kinds().count("sliding_entry") == 1
    assert codes.count(_kernels.STOP_BOUNDARY) == 1
    assert codes.count(_kernels.STOP_ALPHA) == 0


def test_expr_matches_eval_terms():
    rng = np.random.default_rng(11)
    polys = []
    for dim in (1, 2, 3):
        for deg in range(7):
            coeffs, exps = _random_packed(rng, dim=dim, deg=deg, nterms=10)
            polys.append((dim, _kernels.compile_terms(coeffs, exps)))
    polys += [
        (2, ((float("1e400"), (0,)), (-float("1e400"), (1, 1)), (0.5, ()))),
        (3, ((-3.25, ()),)),            # constant only
        (2, ()),                        # an empty component
    ]
    for dim, terms in polys:
        src = _kernels._expr([idx for _, idx in terms], "x", 2)
        for x in [rng.uniform(-2, 2, size=dim).tolist(), [0.0] * dim,
                  [-0.0] * dim]:
            env = {**{f"c{k + 2}": c for k, (c, _) in enumerate(terms)},
                   **{f"x{k}": v for k, v in enumerate(x)}}
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(eval(src, env)) == repr(_kernels.eval_terms(terms, x))
    assert _kernels._expr((), "x") == "0.0"
    assert _kernels._expr(((0, 0, 1), ()), "y") == "0.0 + c0*y0*y0*y1 + c1"
    assert _kernels._expr(((0, 0, 1), ()), "y", 3) == "0.0 + c3*y0*y0*y1 + c4"


def _literal_form(lines, coeffs):
    # the kernel source as generated before kernels were shared by shape:
    # no coefficient parameters, each coefficient written by repr(float)
    src = "\n".join([re.sub(r", c\d+", "", lines[0]), *lines[1:]])
    src = re.sub(r"\bc(\d+)\b", lambda m: repr(coeffs[int(m.group(1))]), src)
    namespace = {**_kernels._NAMESPACE, "inf": math.inf, "nan": math.nan}
    exec(src, namespace)
    return namespace["kernel"]


def test_kernels_of_one_shape_share_one_code_object(quadrant_system,
                                                    monkeypatch):
    # one shape, two coefficient sets: region 1 at two interior theta for
    # the smooth kernel, its first vertex field and half of it for sliding
    sources = []
    compile_lines = _kernels._compile

    def counting(lines):
        sources.append(lines)
        return compile_lines(lines)

    monkeypatch.setattr(_kernels, "_CODES", {})
    monkeypatch.setattr(_kernels, "_compile", counting)
    b = quadrant_system.boundaries[0]
    chi, grad = b.chi._term_list(), _terms(b.chi.gradient())
    F2 = _terms(quadrant_system.field_at(2, (1.0,)))
    fields = [_terms(quadrant_system.field_at(1, (v, 1.0 - v)))
              for v in (0.25, 0.7)]
    smooth = [_kernels.smooth_kernel(F, [chi]) for F in fields]
    vertex = quadrant_system.field_at(1, (1.0, 0.0))
    sliding = [_kernels.sliding_kernel(
        grad, _terms(PolyVector([p * c for p in vertex])), F2, chi)
        for c in (1.0, 0.5)]
    assert len(sources) == len(_kernels._CODES) == 2
    lo, hi = (v.tolist() for v in quadrant_system.box)
    for kernels, lines, runs in (
            (smooth, sources[0],
             [([0.3, -2.0], 0.0, 3.0, 1e-3, 1e-4, lo, hi, 1e-9),
              ([1.5, 0.2], 0.0, 30.0, 1e-2, 1e-4, lo, hi, 1e-9)]),
            (sliding, sources[1],
             [([-1.0, 0.0], 0.0, 2.0, 1e-3, 1e-4, lo, hi, 1e-9, 1e-8),
              ([0.0, 1.2], 0.0, 2.0, 1e-3, 1e-4, lo, hi, 1e-9, 1e-8)])):
        first, second = kernels
        assert first.__code__ is second.__code__
        assert first.__defaults__ != second.__defaults__
        for kernel in kernels:
            literal = _literal_form(lines, kernel.__defaults__)
            for args in runs:
                got = kernel(*args)
                assert repr(got) == repr(literal(*args))
                assert len(got[0]) > 300        # over a hundred steps each


# -- kernels specialised on constant term lists ---------------------------------

# a term list that reads no variable is bound once, before the segment loop;
# these cases hold every exit of such kernels to the interpreters above
_TILT_CHI = ((1.0, (1,)), (-0.1, (0,)))                  # x2 - 0.1*x1
_TILT_GRAD = [_const(-0.1), _const(1.0)]


_HOISTED_SLIDING_CASES = [
    # all constant, on a tilted line: the state moves and is projected back
    (_TILT_GRAD, [_const(0.5), _const(-1)], [_const(0.3), _const(2)],
     _TILT_CHI, (-1.0, -0.1), {}, _kernels.STOP_MAXSTEPS),
    # all constant, sliding until the box edge
    (_TILT_GRAD, [_const(1), _const(-1)], [_const(1), _const(1)],
     _TILT_CHI, (1.5, 0.15), {}, _kernels.STOP_ESCAPED),
    # a linear chi between non-constant fields (tilted-relay.sys)
    (_TILT_GRAD, [((-1.0, (0,)),), ((-1.0, ()), (-1.0, (0, 0)))],
     [_const(1), ((1.0, ()), (0.5, (0,)))], _TILT_CHI, (0.5, 0.05),
     {"h": 1e-3}, _kernels.STOP_MAXSTEPS),
    # one field constant, the other not
    (_GRAD, [_const(1), _const(-1)], [_const(1), ((1.0, (0,)),)], _CHI,
     (0.5, 0.0), {"t_end": 0.3}, _kernels.STOP_MAXSTEPS),
    # equal constant fields: tangent at the first step
    (_TILT_GRAD, [_const(1), _const(-1)], [_const(1), _const(-1)],
     _TILT_CHI, (0.5, 0.05), {}, _kernels.STOP_TANGENCY),
    # both constant fields point down: alpha = 2
    (_GRAD, [(), _const(-1)], [(), _const(-2)], _CHI, (0.5, 0.0), {},
     _kernels.STOP_ALPHA),
    # a nan coefficient: the weight is nan, which is outside [0, 1]
    (_GRAD, [_const(1), _const(math.nan)], [_const(-1), _const(1)], _CHI,
     (0.5, 0.0), {}, _kernels.STOP_ALPHA),
]


@pytest.mark.parametrize("grad, fi, fj, chi, x0, kw, code",
                         _HOISTED_SLIDING_CASES)
def test_hoisted_sliding_kernel_bit_identical_to_interpreter(grad, fi, fj, chi,
                                                             x0, kw, code):
    args = {"t_end": 1.0, "h": 0.01, **kw}
    result = _kernels.rk4_sliding_run(
        _kernels.sliding_kernel(grad, fi, fj, chi), np.array(x0), 0.0,
        args["t_end"], args["h"], 1e-6, *_BOX, 1e-9, 1e-8)
    assert _assert_sliding_exact(
        result, grad, fi, fj, chi, np.array(x0), 0.0, args["t_end"],
        args["h"], 1e-6, *_BOX, 1e-9, 1e-8) == code
    states, times, alphas, x, t, _ = result
    if code in (_kernels.STOP_TANGENCY, _kernels.STOP_ALPHA):
        # both exit at the first step, at t0, with no row
        assert states.shape == (0, 2) and times == alphas == []
        assert x == list(x0) and t == 0.0
    else:
        assert len(times) > 20


_HOISTED_SMOOTH_CASES = [
    # all constant: straight down onto x2 = 0
    ([_const(1), _const(-1)], [_CHI], (0.0, 0.5), _kernels.STOP_BOUNDARY),
    # a constant second component
    ([((-1.0, (0,)),), _const(-1)], [_CHI], (1.0, 1.5),
     _kernels.STOP_BOUNDARY),
    # a constant first component, the second reads x1 only
    ([_const(0.5), ((-1.0, (0,)), (1.0, (0, 0)))], [], (-1.0, 0.0),
     _kernels.STOP_ESCAPED),
    # an infinite or nan constant escapes at the first step: the box is
    # finite, so the chained box comparison fails on +-inf and nan
    ([_const(math.inf), _const(1)], [_CHI], (0.0, 0.5),
     _kernels.STOP_ESCAPED),
    ([_const(-math.inf), _const(1)], [_CHI], (0.0, 0.5),
     _kernels.STOP_ESCAPED),
    ([_const(1), _const(math.nan)], [_CHI], (0.0, 0.5),
     _kernels.STOP_ESCAPED),
]


@pytest.mark.parametrize("fields, chis, x0, code", _HOISTED_SMOOTH_CASES)
def test_hoisted_smooth_kernel_bit_identical_to_interpreter(fields, chis, x0,
                                                            code):
    tail = (np.array(x0), 0.0, 50.0, 0.01, 1e-6, *_BOX, 1e-9)
    result = _kernels.rk4_smooth_run(_kernels.smooth_kernel(fields, chis),
                                     *tail)
    assert _assert_smooth_exact(result, fields, chis, *tail) == code
    if not all(math.isfinite(c) for f in fields for c, _ in f):
        # the escaping state, the first step's, is the last row
        assert len(result[1]) == 2


def _loop_lines(lines):
    # the generated lines from the segment loop's header on
    return lines[next(k for k, line in enumerate(lines)
                      if line.startswith(("    while", "    for"))):]


def test_constant_term_lists_leave_the_loop():
    # opposing constant fields on x2 = 0: nothing but the exits, the update
    # and the projection is left in the loop
    layout = _kernels._layout([*_GRAD, _const(1), _const(-1), _const(-1),
                               _const(1), _CHI])
    loop = [line.strip() for line in
            _loop_lines(_kernels._sliding_lines(2, layout[0], layout[2]))]
    assert not any(line.startswith(("den =", "a =", "w =", "k1_", "k2_", "hh",
                                    "g0 =", "nn =", "n0 =", "u0 ="))
                   for line in loop)
    # every exit is still there: ball, off variety, tangency, alpha and
    # escape in the loop, t_end after it
    assert sum(line.startswith("return") for line in loop) == 6
    assert loop.index("if abs(den) < 1e-12:") < loop.index(
        "if not 0.0 <= a <= 1.0:")
    layout = _kernels._layout([_const(1), ((1.0, (1,)),), _CHI])
    loop = _loop_lines(_kernels._smooth_lines(2, layout[0], layout[2]))
    # k1_0 is bound before the loop, and no stage reads x0's stage points
    assert not any(line.strip().startswith(("k1_0", "k2_0", "y0 = x0 + hh",
                                            "y0 = x0 + h *"))
                   for line in loop)
    assert "y0 = x0 + h6 * r0" in "\n".join(loop)


def test_both_kernels_step_on_one_time_grid():
    # the smooth and the sliding kernel take their clock lines from _clock
    layout = _kernels._layout([*_GRAD, _const(1), ((1.0, (0,)),), _const(-1),
                               _const(1), _CHI])
    sliding = _kernels._sliding_lines(2, layout[0], layout[2])
    layout = _kernels._layout([_const(1), ((1.0, (1,)),), _CHI])
    smooth = _kernels._smooth_lines(2, layout[0], layout[2])
    setup, step, end = _kernels._clock([0])
    # and their header, ball exit and box exit from _frame; the smooth
    # kernel tests the new state y, the sliding kernel x after
    # x0 = y0, x1 = y1
    for lines, var in ((smooth, "y"), (sliding, "x")):
        text = "\n".join(line.strip() for line in lines)
        header, ball, box = _kernels._frame(2, var, "stop {}".format)
        for block in (setup, step, end, header, ball[:1], box[:1]):
            assert "\n".join(line.strip() for line in block) in text
        assert header == ["[x0, x1] = x", "[lo0, lo1] = lo", "[hi0, hi1] = hi"]
        assert ball == ["if sqrt(0.0 + x0 * x0 + x1 * x1) <= ball_stop:",
                        f"stop {_kernels.STOP_CONVERGED}"]
        assert box == [f"if not (lo0 <= {var}0 <= hi0 and lo1 <= {var}1 <= hi1):",
                       f"stop {_kernels.STOP_ESCAPED}"]
        assert "isfinite" not in text
    assert not any(("t += hs" in line or "dt < h" in line) for line in sliding)


def _global_loads(code) -> set:
    """The names code and the code objects nested in it load as globals."""
    names = {ins.argval for ins in dis.get_instructions(code)
             if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_loads(const)
    return names


def test_kernels_load_only_their_namespace():
    # over the pinned corpus and the hoisted cases, the globals the kernels
    # read besides builtins (abs, range) are exactly _NAMESPACE's names
    from kernel_corpus import sources
    codes = [_kernels._compile(text.splitlines())
             for text in sources().values()]
    codes += [_kernels.smooth_kernel(fields, chis).__code__
              for fields, chis, *_ in _HOISTED_SMOOTH_CASES]
    codes += [_kernels.sliding_kernel(grad, fi, fj, chi).__code__
              for grad, fi, fj, chi, *_ in _HOISTED_SLIDING_CASES]
    loads = set().union(*map(_global_loads, codes))
    # exec adds __builtins__ to the globals dict it runs in
    names = set(_kernels._NAMESPACE) - {"__builtins__"}
    assert loads - set(dir(builtins)) == names == {"sqrt"}


_JUMPS = set(dis.hasjrel) | set(dis.hasjabs)


def test_kernel_steps_have_no_loop_and_build_no_list():
    # over the pinned corpus and the hoisted cases, a kernel's one loop is
    # its loop over steps: a step runs no inner loop (the projection's
    # Newton steps are nested ifs), and the only list it builds is the
    # state an exit returns
    from kernel_corpus import sources
    codes = [_kernels._compile(text.splitlines())
             for text in sources().values()]
    codes += [_kernels.smooth_kernel(fields, chis).__code__
              for fields, chis, *_ in _HOISTED_SMOOTH_CASES]
    codes += [_kernels.sliding_kernel(grad, fi, fj, chi).__code__
              for grad, fi, fj, chi, *_ in _HOISTED_SLIDING_CASES]
    for code in codes:
        assert not any(isinstance(c, types.CodeType) for c in code.co_consts)
        ins = list(dis.get_instructions(code))
        assert not any(i.opname in ("GET_ITER", "FOR_ITER") for i in ins)
        back = [i for i in ins if i.opcode in _JUMPS and i.argval < i.offset]
        assert len(back) == 1
        step = [i for i in ins if back[0].argval <= i.offset <= back[0].offset]
        for k, i in enumerate(step):
            if i.opname in ("BUILD_LIST", "LIST_APPEND", "LIST_EXTEND"):
                # no jump between the build and the return
                after = next(j for j in step[k:] if j.opcode in _JUMPS
                             or j.opname == "RETURN_VALUE")
                assert after.opname == "RETURN_VALUE", (code, i)


def test_runs_that_stop_just_short_of_t_end_end_on_it():
    # from t0 = 0.7809999999999999 (a crossing off the grid), step 219 of
    # h = 1e-3 ends at 0.9999999999999999, within 1e-15 of t_end = 1: both
    # kernels record that row at t_end
    t0 = 0.7809999999999999
    assert 1.0 - 1e-15 < t0 + 219 * 1e-3 < 1.0
    _, times, _, _ = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel(_DECAY, []), [1.0], t0, 1.0, 1e-3, 1e-4,
        [-2.0], [2.0], 1e-9)
    assert times[-2:] == [t0 + 218 * 1e-3, 1.0] and len(times) == 220
    _, times, _, _, t, code = _kernels.rk4_sliding_run(
        _kernels.sliding_kernel(_GRAD, [_const(1), _const(-1)],
                                [_const(-1), _const(1)], _CHI),
        [0.5, 0.0], t0, 1.0, 1e-3, 1e-6, *_BOX, 1e-9, 1e-8)
    assert code == _kernels.STOP_MAXSTEPS
    assert times[-2:] == [t0 + 218 * 1e-3, 1.0] and len(times) == 219
    assert t == 1.0


# sha256 of each kernel source of tests/kernel_corpus.py: quadrant-cubic.sys
# has no constant term list, so its kernels are the unspecialised ones
PINNED_KERNEL_DIGESTS = {
    'smooth 1 theta0': '8c78fcec339a4f5b9269f7a35a3ee97dc4c6179a64cc087bdb0ff1dca388359e',
    'smooth 2 theta0': '9421b0706d839a31f612767e7bf3273b832f94006009b748732a6e0b0682543e',
    'sliding 1,2 theta0': '6d6dc58016f3d05a6af0c8315af2f2b2001b232dbb553fb8693123b5e50daa56',
    'smooth 1 theta0.5': '89e91b16fd4b4fce013b740b16d7cf816635c646a2f1267d2579d416f89612e5',
    'smooth 2 theta0.5': '9421b0706d839a31f612767e7bf3273b832f94006009b748732a6e0b0682543e',
    'sliding 1,2 theta0.5': '374214b50f11e25f2f0c9ffd3c270c1113114d259000d0021c825729012b664b',
    'smooth 1 theta1': 'e7f49fc40d6aeccbe809a4e4347ac5ff10964a4ce2b3b4263868b0aa9b61e651',
    'smooth 2 theta1': '9421b0706d839a31f612767e7bf3273b832f94006009b748732a6e0b0682543e',
    'sliding 1,2 theta1': '6bd2df463864b9faec82298a1d18ca7684c1243ce67cd04d6d415d3c1e48494e',
}


def test_kernel_sources_are_pinned():
    from kernel_corpus import digests
    assert digests() == PINNED_KERNEL_DIGESTS
