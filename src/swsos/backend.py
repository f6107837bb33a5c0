"""Conic solver: block-PSD feasibility programs in, values out.

A program is one `SdpProblem`: sparse (row, column, value) triplets for
the PSD blocks' svec columns and for the free scalars, dense b, and a
dense objective c on the svec columns.
`solve` is a dense primal-dual interior-point method written against numpy
alone.  Problems are small (blocks of size <= ~20), so it scatters the
triplets into dense arrays once per solve.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_ERROR = "numerical_error"

_SQRT2 = float(np.sqrt(2.0))


def svec_layout(psd_blocks):
    """[(block_id, n, slice, i, j)] with slice the block's svec columns and
    (i, j) its upper-triangle indices in svec order (row by row), and the
    total svec length.  Column k of a block stands for Q[i[k], j[k]], scaled
    by sqrt(2) off the diagonal so that dot products are trace products."""
    layout, off, triu = [], 0, {}    # blocks of one size share (i, j)
    for bid, n in psd_blocks:
        i, j = triu[n] = triu.get(n) or np.triu_indices(n)
        layout.append((bid, n, slice(off, off + len(i)), i, j))
        off += len(i)
    return layout, off


@dataclass
class SdpProblem:
    """Conic feasibility problem  A x + F s = b,  x in the PSD blocks (svec
    columns, see `svec_layout`),  s free,  minimizing c.x.

    A and F are (row, column, value) triplets, repeated positions adding
    up; an off-diagonal svec column carries the coefficient of Q[i, j] +
    Q[j, i] divided by sqrt(2).  Column k of F is free_scalars[k]; c has
    one entry per svec column.  gram_layout maps a block id to its
    monomial basis.
    """

    psd_blocks: list        # (block_id, size)
    free_scalars: list      # names
    A: tuple                # (row, svec column, value)
    F: tuple                # (row, free scalar, value)
    b: np.ndarray
    c: np.ndarray
    gram_layout: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A, self.F = ((np.asarray(r, np.intp), np.asarray(k, np.intp), np.asarray(v, float))
                          for r, k, v in (self.A, self.F))
        self.b, self.c = np.asarray(self.b, float), np.asarray(self.c, float)

    @property
    def equality_rows(self):
        # Read-only (terms, rhs) per row, terms keyed by column: the svec
        # columns, then free scalar k as column nx + k.  It exists for
        # perfbench until ROADMAP item 1 moves those reads behind accessors;
        # nothing in the package reads it.
        rows, nx = [{} for _ in self.b], svec_layout(self.psd_blocks)[1]
        for (r, k, v), shift in ((self.A, 0), (self.F, nx)):
            for row, col, value in zip(r.tolist(), (k + shift).tolist(), v.tolist()):
                rows[row][col] = value
        return list(zip(rows, self.b.tolist()))

    def validate(self):
        """Raise ValueError on a malformed block, an entry outside its
        matrix, a c of the wrong length, or a non-finite value."""
        ids = [b for b, _ in self.psd_blocks]
        if len(set(ids)) != len(ids):
            dup = sorted({b for b in ids if ids.count(b) > 1})
            raise ValueError(f"duplicate PSD block ids {dup}")
        if any(n < 1 for _, n in self.psd_blocks):
            raise ValueError("PSD block sizes must be >= 1")
        m, nx, nf = len(self.b), svec_layout(self.psd_blocks)[1], len(self.free_scalars)
        for name, (r, k, v), ncol in (("A", self.A, nx), ("F", self.F, nf)):
            if not r.shape == k.shape == v.shape:
                raise ValueError(f"{name} triplet arrays differ in shape")
            out = np.flatnonzero((r < 0) | (r >= m) | (k < 0) | (k >= ncol))
            if out.size:
                raise ValueError(f"{name} entry ({r[out[0]]}, {k[out[0]]}) lies outside "
                                 f"its {m} x {ncol} shape")
        if self.c.shape != (nx,):
            raise ValueError(f"c has shape {self.c.shape}, not ({nx},)")
        rows = np.concatenate([self.A[0], self.F[0], np.arange(m)])
        finite = np.isfinite(np.concatenate([self.A[2], self.F[2], self.b, self.c]))
        if not finite.all():
            bad = rows[~finite[:len(rows)]]
            raise ValueError(f"row {bad.min()} has a non-finite coefficient or right-hand side"
                             if bad.size else "the objective c has a non-finite value")


@dataclass
class SdpSolution:
    status: str
    block_values: dict = field(default_factory=dict)
    scalar_values: dict = field(default_factory=dict)
    primal_residual: float = float("nan")
    min_eigenvalues: dict = field(default_factory=dict)
    solver_status: str = ""


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
    - UNBOUNDED on a direction x in K with A x = 0 and c.x < 0;
    - NUMERICAL_ERROR otherwise.
    """
    problem.validate()
    layout, nx = svec_layout(problem.psd_blocks)
    b, c = problem.b, problem.c
    A, F = np.zeros((len(b), nx)), np.zeros((len(b), len(problem.free_scalars)))
    np.add.at(A, problem.A[:2], problem.A[2])
    np.add.at(F, problem.F[:2], problem.F[2])

    def farkas(y, z):
        by = b @ y
        return by > 0 and (np.linalg.norm(A.T @ y + z) <= FARKAS_TOL * by
                           and np.linalg.norm(F.T @ y) <= FARKAS_TOL * by)

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

