"""Hot numeric kernels: polynomial evaluation and RK4 smooth-segment runs.

Scalar evaluation compiles each polynomial once into a term list of
(coefficient, variable indices), one index per unit of exponent, and
evaluates it in plain Python floats with one multiply per factor, which
avoids numpy's per-call overhead on polynomials of a few terms.  The RK4
segment kernel runs on the term lists each `Polynomial` caches.  Batch
evaluation builds per-variable power columns by repeated multiplication.
There is one implementation of each.
"""
from __future__ import annotations

import math

import numpy as np

# No compiled (numba) twin exists; the benchmark's environment record still
# reads this flag to name the kernel that ran, so it stays, always False.
USE_NUMBA = False

# termination codes of rk4_smooth_run
STOP_MAXSTEPS = 0
STOP_CONVERGED = 1
STOP_ESCAPED = 2
STOP_BOUNDARY = 3


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
