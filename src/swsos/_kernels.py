"""Hot numeric kernels: polynomial evaluation and RK4 segment runs.

Scalar evaluation compiles each polynomial once into a term list of
(coefficient, variable indices), one index per unit of exponent, and
evaluates it in plain Python floats with one multiply per factor, which
avoids numpy's per-call overhead on polynomials of a few terms.  The two
RK4 segment kernels, one for a smooth stretch inside a region and one for
a Filippov sliding stretch on a boundary variety, run on the term lists
each `Polynomial` caches.  The sliding field's formula lives here once,
in `sliding_field`.  Batch evaluation builds per-variable power columns
by repeated multiplication.  There is one implementation of each.
"""
from __future__ import annotations

import math

import numpy as np

# No compiled (numba) twin exists; the benchmark's environment record still
# reads this flag to name the kernel that ran, so it stays, always False.
USE_NUMBA = False

# termination codes of rk4_smooth_run and rk4_sliding_run
STOP_MAXSTEPS = 0           # step budget used up (sliding: t_end reached)
STOP_CONVERGED = 1
STOP_ESCAPED = 2
STOP_BOUNDARY = 3
# further exits of rk4_sliding_run
STOP_OFF_VARIETY = 4        # |chi| above the sliding band
STOP_TANGENCY = 5           # |<n, F_j - F_i>| under TANGENCY_TOL
STOP_ALPHA = 6              # the sliding weight left [0, 1]

TANGENCY_TOL = 1e-12


# -- term lists: plain-float evaluation -------------------------------------

def compile_terms(coeffs, exps) -> tuple:
    """Packed (coeffs, exps) -> ((c, (k, ...)), ...); x1^3*x2 -> (c, (0, 0, 0, 1))."""
    return tuple(
        (float(c), tuple(k for k, e in enumerate(row) for _ in range(e)))
        for c, row in zip(np.asarray(coeffs).tolist(), np.asarray(exps).tolist()))


def eval_terms(terms, x) -> float:
    """Evaluate a compiled term list at x, a list of Python floats.

    Repeated multiplication overflows to inf like numpy does, where
    `float ** int` would raise OverflowError.
    """
    total = 0.0
    for c, idx in terms:
        for k in idx:
            c *= x[k]
        total += c
    return total


# -- batch evaluation ---------------------------------------------------------

def eval_poly_batch(coeffs, exps, X):
    """Evaluate packed (coeffs, exps) at every row of X (m, n)."""
    # per variable: power rows X[:, k]^0..X[:, k]^top by repeated
    # multiplication, gathered by each term's exponent
    prods = np.ones((exps.shape[0], X.shape[0]))
    for k in range(exps.shape[1]):
        top = int(exps[:, k].max(initial=0))
        if top == 0:
            continue
        pows = np.empty((top + 1, X.shape[0]))
        pows[0] = 1.0
        for e in range(1, top + 1):
            pows[e] = pows[e - 1] * X[:, k]
        prods *= pows[exps[:, k]]
    return coeffs @ prods


# -- RK4 smooth segment ---------------------------------------------------------

def rk4_smooth_run(fields, chis, x0, h, max_steps, ball_stop, box_lo, box_hi,
                   band):
    """Fixed-step RK4 on xdot = F(x) until something stops the segment.

    fields: one term list per component of F; chis: one term list per
    boundary variety.  Returns (states, code, boundary index): the
    accepted states from x0 on, one row each, the STOP_* code, and the
    index of the boundary whose chi changed sign or came within `band`
    of zero (-1 for the other codes).  The escaping or boundary-flagged
    state is the last row.
    """
    n = x0.shape[0]
    nb = len(chis)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = float(h)
    hh = 0.5 * h
    h6 = h / 6.0
    cols = range(n)

    x = np.asarray(x0, dtype=np.float64).tolist()
    flat = list(x)          # accepted states, row after row

    def states():
        return np.array(flat).reshape(-1, n)

    chi_prev = [eval_terms(t, x) for t in chis]
    for step in range(max_steps):
        if math.sqrt(sum(v * v for v in x)) <= ball_stop:
            return states(), STOP_CONVERGED, -1
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
                return states(), STOP_ESCAPED, -1
        for b in range(nb):
            chi = eval_terms(chis[b], xn)
            if chi * chi_prev[b] < 0.0 or abs(chi) <= band:
                return states(), STOP_BOUNDARY, b
            chi_prev[b] = chi
        x = xn
    return states(), STOP_MAXSTEPS, -1


# -- RK4 sliding segment --------------------------------------------------------

def sliding_field(n, fi, fj):
    """Filippov sliding field (F_s, alpha) at one point, or None.

    n, fi, fj: the boundary normal and both fields' values, lists of
    floats.  alpha = <n, F_j> / <n, F_j - F_i> and F_s = alpha*F_i +
    (1-alpha)*F_j, the convex combination tangent to {chi = 0}.  None
    when |<n, F_j - F_i>| < TANGENCY_TOL: both fields are tangent and
    alpha is undefined.
    """
    num = den = 0.0
    for nk, u, v in zip(n, fi, fj):
        num += nk * v
        den += nk * (v - u)
    if abs(den) < TANGENCY_TOL:
        return None
    a = num / den
    b = 1.0 - a
    return [a * u + b * v for u, v in zip(fi, fj)], a


def rk4_sliding_run(grad, fi, fj, chi, x0, t0, t_end, h, ball_stop, box_lo,
                    box_hi, event_tol, band):
    """Fixed-step RK4 on the sliding field of one boundary until an exit.

    grad, fi, fj: one term list per component of the variety's gradient,
    F_i and F_j; chi: the variety's term list.  Each step starts at (x, t)
    with the exits, in this order: |x| <= ball_stop (STOP_CONVERGED),
    |chi(x)| > band (STOP_OFF_VARIETY), tangency at x (STOP_TANGENCY) and
    alpha outside [0, 1] (STOP_ALPHA).  It then takes hs = min(h, t_end - t)
    (tangency at a later stage is STOP_TANGENCY too), makes up to three
    Newton steps back onto chi = 0, stopping once |chi| <= event_tol or
    the gradient vanishes, and sets t += hs.  A non-finite or out-of-box
    state ends the run (STOP_ESCAPED); reaching t_end is STOP_MAXSTEPS.

    Returns (states, times, alphas, x, t, code): the accepted states
    (m, n) with their times and the alpha of each step's start, and the
    state and time the run stopped at.  The escaping state is that stop
    state and not an accepted row.
    """
    n = len(x0)
    cols = range(n)
    lo = np.asarray(box_lo, dtype=np.float64).tolist()
    hi = np.asarray(box_hi, dtype=np.float64).tolist()
    h = float(h)
    t = float(t0)
    t_stop = t_end - 1e-15
    x = np.asarray(x0, dtype=np.float64).tolist()
    flat, times, alphas = [], [], []

    def field(xs):
        return sliding_field([eval_terms(p, xs) for p in grad],
                             [eval_terms(p, xs) for p in fi],
                             [eval_terms(p, xs) for p in fj])

    code = STOP_MAXSTEPS
    while t < t_stop:
        if math.sqrt(sum(v * v for v in x)) <= ball_stop:
            code = STOP_CONVERGED
            break
        if abs(eval_terms(chi, x)) > band:
            code = STOP_OFF_VARIETY
            break
        r = field(x)
        if r is None:
            code = STOP_TANGENCY
            break
        k1, alpha = r
        if not 0.0 <= alpha <= 1.0:
            code = STOP_ALPHA
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
            code = STOP_TANGENCY
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
        if not all(lo[k] <= x[k] <= hi[k] for k in cols):   # NaN fails too
            code = STOP_ESCAPED
            break
        flat.extend(x)
        times.append(t)
        alphas.append(alpha)
    return np.array(flat).reshape(-1, n), times, alphas, x, t, code
