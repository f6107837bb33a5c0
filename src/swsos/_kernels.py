"""Hot numeric kernels: polynomial evaluation and RK4 smooth-segment runs.

Scalar evaluation compiles each polynomial once into a term list of
(coefficient, variable indices), one index per unit of exponent, and
evaluates it in plain Python floats with one multiply per factor, which
avoids numpy's per-call overhead on polynomials of a few terms.  The RK4
segment kernel runs on the same term lists.  Batch
evaluation builds per-variable power columns by repeated multiplication.

numba is an optional extra: when it imports (and SWSOS_NO_NUMBA is not
set), @njit twins take over `eval_poly`, `eval_poly_batch` and
`rk4_smooth_run`; `Polynomial.__call__` uses the term lists either way.
"""
from __future__ import annotations

import math
import os

import numpy as np

USE_NUMBA = os.environ.get("SWSOS_NO_NUMBA", "0") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra
        USE_NUMBA = False


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


# -- pure numpy / python implementations ----------------------------------

def _eval_poly_np(coeffs, exps, x):
    return eval_terms(compile_terms(coeffs, exps), np.asarray(x, dtype=np.float64).tolist())


def _eval_poly_batch_np(coeffs, exps, X):
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


def _rk4_smooth_run_np(fc, fe, foff, cc, ce, coff, x0, h, max_steps,
                       ball_stop, box_lo, box_hi, band):
    n = x0.shape[0]
    nb = len(coff) - 1
    fields = [compile_terms(fc[foff[k]:foff[k + 1]], fe[foff[k]:foff[k + 1]])
              for k in range(n)]
    chis = [compile_terms(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]])
            for b in range(nb)]
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


# termination codes shared by both implementations
STOP_MAXSTEPS = 0
STOP_CONVERGED = 1
STOP_ESCAPED = 2
STOP_BOUNDARY = 3


if USE_NUMBA:

    @njit(cache=True)
    def _eval_poly_nb(coeffs, exps, x):
        total = 0.0
        nterms = coeffs.shape[0]
        nvars = x.shape[0]
        for t in range(nterms):
            term = coeffs[t]
            for k in range(nvars):
                e = exps[t, k]
                if e == 1:
                    term *= x[k]
                elif e > 1:
                    term *= x[k] ** e
            total += term
        return total

    @njit(cache=True)
    def _eval_poly_batch_nb(coeffs, exps, X):
        npts = X.shape[0]
        out = np.empty(npts)
        for i in range(npts):
            out[i] = _eval_poly_nb(coeffs, exps, X[i])
        return out

    @njit(cache=True)
    def _field_nb(fc, fe, foff, x, out):
        for k in range(out.shape[0]):
            out[k] = _eval_poly_nb(fc[foff[k]:foff[k + 1]], fe[foff[k]:foff[k + 1]], x)

    @njit(cache=True)
    def _rk4_smooth_run_nb(fc, fe, foff, cc, ce, coff, x0, h, max_steps,
                           ball_stop, box_lo, box_hi, band):
        n = x0.shape[0]
        nb = coff.shape[0] - 1
        states = np.empty((max_steps + 1, n))
        states[0] = x0
        chi_prev = np.empty(nb)
        for b in range(nb):
            chi_prev[b] = _eval_poly_nb(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], x0)
        k1 = np.empty(n)
        k2 = np.empty(n)
        k3 = np.empty(n)
        k4 = np.empty(n)
        for step in range(max_steps):
            x = states[step]
            nrm = 0.0
            for k in range(n):
                nrm += x[k] * x[k]
            if np.sqrt(nrm) <= ball_stop:
                return states[: step + 1], STOP_CONVERGED, -1
            _field_nb(fc, fe, foff, x, k1)
            _field_nb(fc, fe, foff, x + 0.5 * h * k1, k2)
            _field_nb(fc, fe, foff, x + 0.5 * h * k2, k3)
            _field_nb(fc, fe, foff, x + h * k3, k4)
            xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ok = True
            for k in range(n):
                if not np.isfinite(xn[k]) or xn[k] < box_lo[k] or xn[k] > box_hi[k]:
                    ok = False
            states[step + 1] = xn
            if not ok:
                return states[: step + 2], STOP_ESCAPED, -1
            for b in range(nb):
                chi = _eval_poly_nb(cc[coff[b]:coff[b + 1]], ce[coff[b]:coff[b + 1]], xn)
                if chi * chi_prev[b] < 0.0 or abs(chi) <= band:
                    return states[: step + 2], STOP_BOUNDARY, b
                chi_prev[b] = chi
        return states, STOP_MAXSTEPS, -1

    eval_poly = _eval_poly_nb
    eval_poly_batch = _eval_poly_batch_nb
    rk4_smooth_run = _rk4_smooth_run_nb
else:
    eval_poly = _eval_poly_np
    eval_poly_batch = _eval_poly_batch_np
    rk4_smooth_run = _rk4_smooth_run_np
