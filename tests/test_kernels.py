"""The plain-float kernels against the references they replaced.

Term-list evaluation, at one point and on columns, and the RK4 segment
runs match the numpy expressions to rounding (tolerances below absorb the
difference); on columns it equals the one-point evaluation bit for bit.
The generated RK4 kernels and the emitted expressions match the term-list
interpreters they replaced bit for bit: those interpreters are kept here
as references.
"""

import math

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
        _kernels.smooth_kernel([((-1.0, (0,)),)], []), x0, 0.01, 2000, 1e-4,
        np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_CONVERGED
    assert bidx == -1
    # ||x|| <= 1e-4 happens at t ~= ln(1e4) ~= 9.21
    assert abs((states.shape[0] - 1) * 0.01 - np.log(1e4)) < 0.05


def test_rk4_run_escape_detection():
    # xdot = +x blows out of the box
    states, code, _ = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([((1.0, (0,)),)], []), np.array([1.0]), 0.01,
        10000, 1e-6, np.array([-2.0]), np.array([2.0]), 1e-9)
    assert code == _kernels.STOP_ESCAPED
    assert states[-1, 0] > 2.0


def test_rk4_run_boundary_flag():
    # xdot = (1, 0) crossing the chi = x1 variety from the left
    states, code, bidx = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([((1.0, ()),), ()], [((1.0, (0,)),)]),
        np.array([-0.05, 0.0]), 0.01, 100, 1e-9, np.array([-2.0, -2.0]),
        np.array([2.0, 2.0]), 1e-9)
    assert code == _kernels.STOP_BOUNDARY
    assert bidx == 0
    assert states[-2, 0] < 0.0 <= states[-1, 0] + 1e-9


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
    cubic = Polynomial.monomial(2, (3, 0), 1.0) + Polynomial.variable(2, 1)
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
    tail = (np.array(x0), 1e-3, 500, 1e-4, lo, hi, 1e-9)
    s1, c1, b1 = _kernels.rk4_smooth_run(_kernels.smooth_kernel(
        [p._term_list() for p in F], [c._term_list() for c in chis]), *tail)
    s2, c2, b2 = _ref_rk4_smooth_run(*_pack(F), *_pack(chis), *tail)
    assert (c1, b1) == (c2, b2)
    assert s1.shape == s2.shape
    assert np.allclose(s1, s2, rtol=1e-12, atol=0.0)


def test_rk4_term_list_escape_matches_numpy_reference():
    # xdot = x^3 blows up in finite time and leaves the box
    F = [Polynomial.monomial(1, (3,))]
    tail = (np.array([1.5]), 1e-2, 500, 1e-6, np.array([-4.0]), np.array([4.0]), 1e-9)
    s1, c1, _ = _kernels.rk4_smooth_run(
        _kernels.smooth_kernel([p._term_list() for p in F], []), *tail)
    s2, c2, _ = _ref_rk4_smooth_run(*_pack(F), *_pack([]), *tail)
    assert c1 == c2 == _kernels.STOP_ESCAPED
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
    # the time rule: t += min(h, t_end - t) until t_end - 1e-15
    ref, tt = [], 0.0
    while tt < 0.105 - 1e-15:
        tt += min(0.01, 0.105 - tt)
        ref.append(tt)
    assert times == ref and len(times) == 11
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
    # the numpy-vector loop simulate ran per sliding step before the kernel
    def f_slide(x):
        n, fi, fj = grad(x), Fi(x), Fj(x)
        den = float(np.dot(n, fj - fi))
        if abs(den) < 1e-12:
            return None
        a = float(np.dot(n, fj)) / den
        return a * fi + (1.0 - a) * fj, a

    x, t = np.asarray(x0, dtype=float), t0
    states, times, alphas = [], [], []

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
        hs = min(h, t_end - t)
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
        t += hs
        x = xn
        if not (np.all(x >= box_lo) and np.all(x <= box_hi)):
            return done(_kernels.STOP_ESCAPED)
        states.append(x)
        times.append(t)
        alphas.append(alpha)
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

def _interp_rk4_smooth_run(fields, chis, x0, h, max_steps, ball_stop, box_lo,
                           box_hi, band):
    # the interpreted smooth segment loop, term list by term list
    n = x0.shape[0]
    nb = len(chis)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = float(h)
    hh = 0.5 * h
    h6 = h / 6.0
    cols = range(n)
    eval_terms = _kernels.eval_terms

    x = np.asarray(x0, dtype=np.float64).tolist()
    flat = list(x)

    def states():
        return np.array(flat).reshape(-1, n)

    chi_prev = [eval_terms(t, x) for t in chis]
    for step in range(max_steps):
        if math.sqrt(sum(v * v for v in x)) <= ball_stop:
            return states(), _kernels.STOP_CONVERGED, -1
        k1 = [eval_terms(t, x) for t in fields]
        xs = [x[k] + hh * k1[k] for k in cols]
        k2 = [eval_terms(t, xs) for t in fields]
        xs = [x[k] + hh * k2[k] for k in cols]
        k3 = [eval_terms(t, xs) for t in fields]
        xs = [x[k] + h * k3[k] for k in cols]
        k4 = [eval_terms(t, xs) for t in fields]
        xn = [x[k] + h6 * (k1[k] + 2 * k2[k] + 2 * k3[k] + k4[k]) for k in cols]
        flat.extend(xn)
        for k in cols:
            v = xn[k]
            if not math.isfinite(v) or v < lo[k] or v > hi[k]:
                return states(), _kernels.STOP_ESCAPED, -1
        for b in range(nb):
            chi = eval_terms(chis[b], xn)
            if chi * chi_prev[b] < 0.0 or abs(chi) <= band:
                return states(), _kernels.STOP_BOUNDARY, b
            chi_prev[b] = chi
        x = xn
    return states(), _kernels.STOP_MAXSTEPS, -1


def _interp_rk4_sliding_run(grad, fi, fj, chi, x0, t0, t_end, h, ball_stop,
                            box_lo, box_hi, event_tol, band):
    # the interpreted sliding segment loop, term list by term list
    n = len(x0)
    cols = range(n)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = float(h)
    t = float(t0)
    t_stop = t_end - 1e-15
    x = np.asarray(x0, dtype=np.float64).tolist()
    flat, times, alphas = [], [], []
    eval_terms = _kernels.eval_terms

    def field(xs):
        return _kernels.sliding_field([eval_terms(p, xs) for p in grad],
                                      [eval_terms(p, xs) for p in fi],
                                      [eval_terms(p, xs) for p in fj])

    code = _kernels.STOP_MAXSTEPS
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
        hs = min(h, t_end - t)
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
        for _ in range(3):
            c = eval_terms(chi, xn)
            if abs(c) <= event_tol:
                break
            g = [eval_terms(p, xn) for p in grad]
            nn = sum(v * v for v in g)
            if nn == 0.0:
                break
            s = c / nn
            xn = [xn[k] - s * g[k] for k in cols]
        t += hs
        x = xn
        if not all(lo[k] <= x[k] <= hi[k] for k in cols):
            code = _kernels.STOP_ESCAPED
            break
        flat.extend(x)
        times.append(t)
        alphas.append(alpha)
    return np.array(flat).reshape(-1, n), times, alphas, x, t, code


def _assert_smooth_exact(result, fields, chis, *tail):
    # result: rk4_smooth_run on the kernel of fields and chis, with tail
    s1, c1, b1 = result
    s2, c2, b2 = _interp_rk4_smooth_run(fields, chis, *tail)
    assert (c1, b1) == (c2, b2)
    assert s1.shape == s2.shape and np.array_equal(s1, s2)
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
    _smooth_exact(_terms(F), chis, np.array(x0), 1e-3, 500, 1e-4,
                         lo, hi, 1e-9)


@pytest.mark.parametrize("fields, chis, x0, h, max_steps, ball_stop, box, code", [
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
def test_smooth_kernel_bit_identical_on_unit_cases(fields, chis, x0, h,
                                                   max_steps, ball_stop, box,
                                                   code):
    n = len(x0)
    assert _smooth_exact(fields, chis, np.array(x0), h, max_steps, ball_stop,
                         np.full(n, -box), np.full(n, box), 1e-9) == code


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


def test_kernels_bit_identical_on_chattering_run(quadrant_system, monkeypatch):
    # every segment simulate runs from (0.3, -2) at theta = 1: chattering
    # smooth segments at halved steps and [chattering] sliding stretches
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
    cfg = SimConfig(t_end=2.0, theta=_theta_table(quadrant_system, 1.0))
    traj = simulate(quadrant_system, (0.3, -2.0), cfg)
    assert traj.event_kinds().count("sliding_entry") == 7
    assert codes.count(_kernels.STOP_BOUNDARY) > 400
    assert codes.count(_kernels.STOP_ALPHA) == 7


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
        src = _kernels._expr(terms, "x")
        for x in [rng.uniform(-2, 2, size=dim).tolist(), [0.0] * dim,
                  [-0.0] * dim]:
            env = {**_kernels._NAMESPACE,
                   **{f"x{k}": v for k, v in enumerate(x)}}
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(eval(src, env)) == repr(_kernels.eval_terms(terms, x))
    assert _kernels._expr((), "x") == "0.0"
    assert _kernels._expr(((2.5, (0, 0, 1)), (-1.0, ())), "y") == (
        "0.0 + 2.5*y0*y0*y1 + -1.0")
