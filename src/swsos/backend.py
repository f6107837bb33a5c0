"""Conic solver: block-PSD feasibility programs in, values out.

`solve` is a dense primal-dual interior-point method written against numpy
alone.  Problems are small (blocks of size <= ~20), so it works on dense
arrays built once per solve from the row dicts of an `SdpProblem`.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_ERROR = "numerical_error"


@dataclass
class SdpProblem:
    """Abstract conic feasibility problem.

    equality_rows entries are (terms, rhs) with terms mapping variable keys
    to coefficients.  Keys: ("s", name) for free scalars; ("e", block, i, j)
    with i <= j for entries of symmetric PSD blocks (the coefficient
    multiplies Q[i, j]; symmetric pairs must be accounted for by the caller).
    """

    psd_blocks: list = field(default_factory=list)   # (block_id, size)
    free_scalars: list = field(default_factory=list)
    equality_rows: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def validate(self):
        """Raise ValueError on a malformed block, key or non-finite value."""
        sizes = dict(self.psd_blocks)
        if len(sizes) != len(self.psd_blocks):
            dup = [b for b, k in Counter(b for b, _ in self.psd_blocks).items() if k > 1]
            raise ValueError(f"duplicate PSD block ids {dup}")
        if any(s < 1 for s in sizes.values()):
            raise ValueError("PSD block sizes must be >= 1")
        scalars = set(self.free_scalars)
        rows = self.equality_rows
        for terms, _ in rows:
            for key in terms:
                if key[0] == "s":
                    if key[1] not in scalars:
                        raise ValueError(f"row references undeclared scalar {key[1]!r}")
                elif key[0] == "e":
                    _, b, i, j = key
                    if b not in sizes:
                        raise ValueError(f"row references undeclared block {b!r}")
                    if not (0 <= i <= j < sizes[b]):
                        raise ValueError(f"entry ({i},{j}) out of range for block {b!r}")
                else:
                    raise ValueError(f"unknown variable key {key!r}")
        values = np.fromiter(chain(chain.from_iterable(terms.values() for terms, _ in rows),
                                   (rhs for _, rhs in rows)), dtype=np.float64)
        if not np.isfinite(values).all():
            bad = next(r for r, (terms, rhs) in enumerate(rows)
                       if not np.isfinite([rhs, *terms.values()]).all())
            raise ValueError(f"row {bad} has a non-finite coefficient or right-hand side")


@dataclass
class SdpSolution:
    status: str
    block_values: dict = field(default_factory=dict)
    scalar_values: dict = field(default_factory=dict)
    primal_residual: float = float("nan")
    min_eigenvalues: dict = field(default_factory=dict)
    solver_status: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


# -- interior-point solver -----------------------------------------------------

# Stopping rules of solve.  Residuals and the gap are relative to
# 1 + the norm of the data they are measured against.
OPTIMAL_TOL = 1e-9      # primal, dual and gap tolerance of a clean "optimal"
# A stalled run still returns FEASIBLE when its best iterate has primal
# residual (max over the original rows) and relative dual residual at most
# this; it is the bound of a "marginal" certificate in sos.SosCertificate.
INACCURATE_TOL = 1e-5
FARKAS_TOL = 1e-8       # ||A*y + S|| <= FARKAS_TOL * b.y proves infeasibility
RANK_TOL = 1e-10        # relative singular-value cutoff of the row reduction
SCHUR_REG = 1e-14       # diagonal shift, relative to the mean pivot, on retry
STEP_TO_BOUNDARY = 0.98
MAX_ITERS = 100
STALL_ITERS = 10        # stop when the best iterate is this many iterations old

_SQRT2 = float(np.sqrt(2.0))


def _svec_layout(psd_blocks):
    """[(block_id, n, slice, i, j)] with (i, j) the upper-triangle indices of
    each block in svec order, and the total svec length."""
    layout, off = [], 0
    for bid, n in psd_blocks:
        i, j = np.triu_indices(n)
        layout.append((bid, n, slice(off, off + len(i)), i, j))
        off += len(i)
    return layout, off


def _svec(M, i, j):
    """Symmetric matrix -> vector whose dot product is the trace inner product."""
    return np.where(i == j, M[i, j], _SQRT2 * M[i, j])


def _smat(v, n, i, j):
    M = np.zeros((n, n))
    M[i, j] = np.where(i == j, v, v / _SQRT2)
    return M + np.triu(M, 1).T


def _hkm(X, Zi, i, j):
    """Matrix of K -> svec(sym(X K Zi)) in svec coordinates (symmetric)."""
    f = np.where(i == j, 0.5, 1.0 / _SQRT2)
    W = (X[np.ix_(i, i)] * Zi[np.ix_(j, j)] + X[np.ix_(i, j)] * Zi[np.ix_(j, i)]
         + X[np.ix_(j, i)] * Zi[np.ix_(i, j)] + X[np.ix_(j, j)] * Zi[np.ix_(i, i)])
    return W * np.outer(f, f)


def _dense_rows(problem: SdpProblem, layout, nx):
    """(A, F, b, cx, cs): PSD entries as svec columns of A, free scalars as
    columns of F, objective split the same way."""
    where = {bid: (sl.start, n) for bid, n, sl, _, _ in layout}
    sidx = {name: k for k, name in enumerate(problem.free_scalars)}
    m, f = len(problem.equality_rows), len(problem.free_scalars)
    A, F = np.zeros((m, nx)), np.zeros((m, f))
    cx, cs = np.zeros(nx), np.zeros(f)

    def put(xrow, srow, terms):
        for key, coef in terms.items():
            if key[0] == "s":
                srow[sidx[key[1]]] += coef
            else:
                _, bid, i, j = key
                off, n = where[bid]
                k = off + i * (2 * n - i + 1) // 2 + j - i
                xrow[k] += coef if i == j else coef / _SQRT2

    for r, (terms, _) in enumerate(problem.equality_rows):
        put(A[r], F[r], terms)
    put(cx, cs, problem.objective)
    b = np.array([float(rhs) for _, rhs in problem.equality_rows])
    return A, F, b, cx, cs


def _rank(s) -> int:
    return int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


def _hsd(A, b, c, layout, farkas):
    """Homogeneous self-dual embedding of  min c.x, A x = b, x in K:

        A x - b tau = 0,  A'y + z - c tau = 0,  c.x - b.y + kappa = 0,
        x, z in K,  tau, kappa >= 0,

    solved by infeasible path following with the HKM direction and a
    Mehrotra predictor-corrector.  A must have full row rank.  Returns
    (outcome, x, iterations, dual_residual) with outcome "optimal",
    "infeasible" (farkas(y, z) accepted the dual iterate), "unbounded" or
    "stalled"; x is x/tau of the iterate with the smallest relative
    primal/dual residual seen, dual_residual is that iterate's.
    """
    m = A.shape[0]
    e = np.concatenate([_svec(np.eye(n), i, j) for _, n, _, i, j in layout] or [np.zeros(0)])
    x, z, y = e.copy(), e.copy(), np.zeros(m)
    tau = kappa = 1.0
    nu = sum(n for _, n, _, _, _ in layout) + 1.0
    nb, nc = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)
    best, best_res, best_dres, best_it = x.copy(), np.inf, np.inf, 0
    for it in range(MAX_ITERS):
        rp = A @ x - tau * b
        rd = A.T @ y + z - tau * c
        rg = c @ x - b @ y + kappa
        mu = (x @ z + tau * kappa) / nu
        pres, dres = np.linalg.norm(rp) / (tau * nb), np.linalg.norm(rd) / (tau * nc)
        res = max(pres, dres)
        log.debug("iteration %d: primal %.1e dual %.1e mu %.1e tau %.1e kappa %.1e",
                  it, pres, dres, mu, tau, kappa)
        if res < best_res:
            best, best_res, best_dres, best_it = x / tau, res, dres, it
        if res <= OPTIMAL_TOL and abs(c @ x - b @ y) <= OPTIMAL_TOL * (tau + abs(c @ x)):
            return "optimal", x / tau, it, dres
        if b @ y > 0 and farkas(y, z):
            return "infeasible", None, it, dres
        if c @ x < 0 and np.linalg.norm(A @ x) <= FARKAS_TOL * -(c @ x):
            return "unbounded", None, it, dres
        if it - best_it > STALL_ITERS:
            break

        try:
            blocks, AW = [], np.empty_like(A)
            for _, n, sl, i, j in layout:
                X, Z = _smat(x[sl], n, i, j), _smat(z[sl], n, i, j)
                LXi = np.linalg.inv(np.linalg.cholesky(X))
                LZi = np.linalg.inv(np.linalg.cholesky(Z))
                Zi = LZi.T @ LZi
                W = _hkm(X, Zi, i, j)
                AW[:, sl] = A[:, sl] @ W
                blocks.append((n, sl, i, j, Zi, W, LXi, LZi))
            M = AW @ A.T
            try:
                L = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                # degenerate problems make M singular as mu -> 0
                L = np.linalg.cholesky(M + SCHUR_REG * np.trace(M) / m * np.eye(m))
            Li = np.linalg.inv(L)
        except np.linalg.LinAlgError:
            # the iterate or Schur complement is singular to working
            # precision near the end of a rank-deficient solve: stop, and
            # let the best iterate speak
            break

        def apply_w(v):
            return np.concatenate([W @ v[sl] for _, sl, _, _, _, W, _, _ in blocks]
                                  or [np.zeros(0)])

        def m_solve(r):
            return Li.T @ (Li @ r)

        Wc, Wrd = apply_w(c), apply_w(rd)
        AWc = A @ Wc
        g, q = AWc - b, m_solve(AWc + b)
        denom = g @ q - c @ Wc - kappa / tau

        def direction(Rc, rtau, eta):
            p = m_solve(-eta * rp - A @ Rc - eta * (A @ Wrd))
            r3 = -eta * rg - c @ Rc - eta * (c @ Wrd) - rtau / tau
            dtau = (r3 - g @ p) / denom
            dy = p + q * dtau
            dz = -eta * rd - A.T @ dy + c * dtau
            return Rc - apply_w(dz), dy, dz, dtau, (rtau - kappa * dtau) / tau

        def max_step(dx, dz, dtau, dkappa):
            a = np.inf
            for n, sl, i, j, _, _, LXi, LZi in blocks:
                for Li_, d in ((LXi, dx), (LZi, dz)):
                    lam = np.linalg.eigvalsh(Li_ @ _smat(d[sl], n, i, j) @ Li_.T)[0]
                    if lam < 0:
                        a = min(a, -1.0 / lam)
            for v, dv in ((tau, dtau), (kappa, dkappa)):
                if dv < 0:
                    a = min(a, -v / dv)
            return a

        dxa, _, dza, dta, dka = direction(-x, -tau * kappa, 1.0)
        sigma = (1.0 - min(1.0, max_step(dxa, dza, dta, dka))) ** 3
        Rc = -x.copy()
        for n, sl, i, j, Zi, _, _, _ in blocks:
            corr = Zi @ _smat(dza[sl], n, i, j) @ _smat(dxa[sl], n, i, j)
            Rc[sl] += _svec(sigma * mu * Zi - 0.5 * (corr + corr.T), i, j)
        dx, dy, dz, dt, dk = direction(Rc, sigma * mu - tau * kappa - dta * dka,
                                       1.0 - sigma)
        alpha = min(1.0, STEP_TO_BOUNDARY * max_step(dx, dz, dt, dk))
        x, y, z = x + alpha * dx, y + alpha * dy, z + alpha * dz
        tau, kappa = tau + alpha * dt, kappa + alpha * dk
    return "stalled", best, it, best_dres


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve `problem` by a dense primal-dual interior-point method on numpy.

    Free scalars are eliminated by projecting the rows onto the orthogonal
    complement of their columns, which leaves the standard form
    min c.x  s.t.  A x = b,  x in a product of PSD cones (svec layout).
    That is solved through a homogeneous self-dual embedding (the SeDuMi
    design), so the same iterations either converge to a solution or to a
    Farkas certificate of infeasibility.  Statuses:

    - FEASIBLE, solver status ``native:optimal:<iters>``, or
      ``native:inaccurate:<iters>`` when the iterations stall (weakly
      feasible or weakly infeasible problems, where both tau and kappa go
      to 0) but the best iterate has primal and dual residuals at most
      INACCURATE_TOL;
    - INFEASIBLE only on a Farkas certificate y with b.y > 0 and
      ||A*y + S|| <= FARKAS_TOL * b.y, S PSD, checked on the original rows;
    - UNBOUNDED on a direction x in K with A x = 0 and c.x < 0, or when
      a feasible problem's objective on free scalars does not factor
      through the rows;
    - NUMERICAL_ERROR otherwise.
    """
    problem.validate()
    layout, nx = _svec_layout(problem.psd_blocks)
    A, F, b, cx, cs = _dense_rows(problem, layout, nx)

    def farkas(y, z):
        by = b @ y
        return by > 0 and (np.linalg.norm(A.T @ y + z) <= FARKAS_TOL * by
                           and np.linalg.norm(F.T @ y) <= FARKAS_TOL * by)

    # an objective on free scalars must factor through the rows
    # (cs = F'w, so cs.s = w.(b - A x)); otherwise it is unbounded below
    w = np.linalg.lstsq(F.T, cs, rcond=None)[0] if F.size else np.zeros(len(b))
    unbounded = np.linalg.norm(F.T @ w - cs) > RANK_TOL * (1.0 + np.linalg.norm(cs))
    c = np.zeros(nx) if unbounded else cx - A.T @ w

    # T: orthonormal rows with T F = 0 and T A of full row rank
    U, s, _ = np.linalg.svd(F)
    N = U[:, _rank(s):]
    U2, s2, Vt2 = np.linalg.svd(N.T @ A, full_matrices=False)
    r = _rank(s2)
    T = U2[:, :r].T @ N.T
    # the part of the right-hand side no x can reach: inconsistent rows
    unreachable = N.T @ b - U2[:, :r] @ (T @ b)
    if farkas(N @ unreachable, np.zeros(nx)):
        return SdpSolution(status=INFEASIBLE, solver_status="native:infeasible:0")

    outcome, x, iters, dres = _hsd(s2[:r, None] * Vt2[:r], T @ b, c, layout,
                                   lambda y, z: farkas(T.T @ y, z))
    if outcome in ("infeasible", "unbounded"):
        return SdpSolution(status=INFEASIBLE if outcome == "infeasible" else UNBOUNDED,
                           solver_status=f"native:{outcome}:{iters}")

    scalars = _recover_scalars(A, F, b, x)
    residual = float(np.abs(A @ x + F @ scalars - b).max(initial=0.0))
    if outcome == "stalled" and not max(residual, dres) <= INACCURATE_TOL:
        return SdpSolution(status=NUMERICAL_ERROR,
                           solver_status=f"native:stalled:{iters}:primal {residual:.1e}"
                                         f" dual {dres:.1e}")
    if unbounded:
        return SdpSolution(status=UNBOUNDED, solver_status=f"native:unbounded:{iters}")
    bvals = {bid: _smat(x[sl], n, i, j) for bid, n, sl, i, j in layout}
    return SdpSolution(
        status=FEASIBLE,
        block_values=bvals,
        scalar_values=dict(zip(problem.free_scalars, map(float, scalars))),
        primal_residual=residual,
        min_eigenvalues={bid: float(np.linalg.eigvalsh(Q)[0]) for bid, Q in bvals.items()},
        solver_status=f"native:{'optimal' if outcome == 'optimal' else 'inaccurate'}:{iters}",
    )


def _recover_scalars(A, F, b, x):
    """Free scalars s for A x + F s = b: rows that hold only free scalars
    (exact identities such as gluing conditions) are solved exactly, the
    rest are fitted by least squares over what those rows leave free."""
    rhs = b - A @ x
    only = ~A.any(axis=1)
    s0 = np.linalg.lstsq(F[only], rhs[only], rcond=None)[0]
    _, sv, Vt = np.linalg.svd(F[only])
    Z = Vt[_rank(sv):].T
    rest = ~only
    t = np.linalg.lstsq(F[rest] @ Z, rhs[rest] - F[rest] @ s0, rcond=None)[0]
    return s0 + Z @ t

