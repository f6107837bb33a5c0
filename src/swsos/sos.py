"""SOS decomposition and Positivstellensatz constraint assembly.

Constraint templates follow the classic recipe: a target polynomial minus
free-multiplier combinations of equality generators, minus SOS-multiplier
combinations of inequality generators must equal one master SOS form.
Everything is flattened coefficient-wise, one row per monomial in grlex
order, into one block-PSD program in array form (`backend.SdpProblem`),
which `solve` (imported from `backend`) solves.  Decision polynomials are
`LinPoly`s; `LinPoly * Polynomial` is `mul_poly`, so `poly.lie_derivative`
takes the Lie derivative of a LinPoly as of a Polynomial.

Rows are numbered by grlex rank, a monomial's position in `monomial_basis`
order (`poly.grlex_rank`, computed from the exponents alone).  A
constraint's rows are the sorted union of the ranks that its target, its
equality multipliers and its Gram blocks use; a mask over the ranks and
its cumulative sum give each rank its row.  A Gram block's coefficients
depend only on its basis and its generator, so `assemble` builds one pair
table per (dimension, half degree, minimum degree) and call (the basis,
the exponents of b_i * b_j in svec order and the diagonal mask) and
derives one entry table per generator from it: the rank of each entry's
monomial, its svec column and its scaled coefficient.  The same basis and
generator recur across constraints (the box generators sit in all of
them), so a block mostly appends a table it finds.  Nothing outlives the
call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import add

import numpy as np

# INFEASIBLE is re-exported for callers that import it from here
from .backend import _SQRT2, FEASIBLE, INFEASIBLE, SdpProblem, SdpSolution, solve, svec_layout
from .poly import Monomial, Polynomial, grlex_rank, monomial_basis

GRAM_EIG_TOL = 1e-7
RESIDUAL_OK = 1e-7
RESIDUAL_MARGINAL = 1e-5


class DegreeBookkeepingError(ValueError):
    """An inequality generator has higher degree than its constraint's
    target, so no SOS multiplier keeps the identity balanced."""


class NumericalInfeasibility(RuntimeError):
    """A Gram matrix fails its PSD tolerance; extraction refused."""


# -- decision polynomials --------------------------------------------------

class LinPoly:
    """Polynomial whose coefficients are affine expressions in named scalars.

    terms maps monomial -> {None: constant, var_name: coefficient}.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {}
        for mono, expr in (terms or {}).items():
            cleaned = {k: float(v) for k, v in expr.items() if v != 0.0}
            if cleaned:
                self.terms[tuple(mono)] = cleaned

    @staticmethod
    def _clean(dim: int, terms: dict) -> "LinPoly":
        """__init__ without the copy: drop exact zeros of fresh float terms."""
        for m in [m for m, e in terms.items() if 0.0 in e.values()]:
            terms[m] = {k: v for k, v in terms[m].items() if v != 0.0}
            if not terms[m]:
                del terms[m]
        out = object.__new__(LinPoly)
        out.dim, out.terms = dim, terms
        return out

    @staticmethod
    def from_poly(p: Polynomial) -> "LinPoly":
        return LinPoly._clean(p.dim, {m: {None: c} for m, c in p.terms.items()})

    @staticmethod
    def decision(dim: int, name: str, monomials) -> "LinPoly":
        """Fresh decision polynomial with one scalar per basis monomial."""
        return LinPoly(dim, {m: {f"{name}[{_mono_tag(m)}]": 1.0} for m in monomials})

    def variables(self):
        out = set()
        for expr in self.terms.values():
            out.update(k for k in expr if k is not None)
        return out

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = LinPoly.from_poly(other)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        t = {m: dict(e) for m, e in self.terms.items()}
        for m, expr in other.terms.items():
            acc = t.setdefault(m, {})
            for k, v in expr.items():
                acc[k] = acc.get(k, 0.0) + v
        return LinPoly._clean(self.dim, t)

    def __sub__(self, other):
        # one pass; x - v is x + (-v) bit for bit, signed zeros included
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        t = {m: dict(e) for m, e in self.terms.items()}
        if isinstance(other, Polynomial):
            for m, c in other.terms.items():
                acc = t.setdefault(m, {})
                acc[None] = acc.get(None, 0.0) - c
        else:
            for m, expr in other.terms.items():
                acc = t.setdefault(m, {})
                for k, v in expr.items():
                    acc[k] = acc.get(k, 0.0) - v
        return LinPoly._clean(self.dim, t)

    def scale(self, c: float) -> "LinPoly":
        c = float(c)
        return LinPoly._clean(self.dim, {m: {k: v * c for k, v in e.items()}
                                         for m, e in self.terms.items()})

    def mul_poly(self, p: Polynomial) -> "LinPoly":
        t = {}
        for m1, expr in self.terms.items():
            for m2, c in p.terms.items():
                acc = t.setdefault(tuple(map(add, m1, m2)), {})
                for k, v in expr.items():
                    acc[k] = acc.get(k, 0.0) + v * c
        return LinPoly._clean(self.dim, t)

    __mul__ = mul_poly

    def diff(self, k: int) -> "LinPoly":
        # m -> m - e_k is one-to-one, so nothing is summed
        t = {}
        for m, expr in self.terms.items():
            e = m[k]
            if e:
                t[m[:k] + (e - 1,) + m[k + 1:]] = {key: v * e for key, v in expr.items()}
        return LinPoly._clean(self.dim, t)

    def instantiate(self, values: dict) -> Polynomial:
        terms = {}
        for m, expr in self.terms.items():
            c = expr.get(None, 0.0) + sum(v * values[k] for k, v in expr.items() if k is not None)
            if c != 0.0:
                terms[m] = c
        return Polynomial(self.dim, terms)


def _mono_tag(m: Monomial) -> str:
    return ",".join(str(e) for e in m)


def mono_from_tag(tag: str) -> Monomial:
    return tuple(int(s) for s in tag.split(","))


# -- Gram machinery --------------------------------------------------------

@dataclass
class GramRepresentation:
    basis: list            # ordered monomials
    gram: np.ndarray       # symmetric matrix, len(basis) square

    def polynomial(self, dim: int) -> Polynomial:
        terms = {}
        b = self.basis
        Q = self.gram
        for i in range(len(b)):
            for j in range(i, len(b)):
                m = tuple(a + c for a, c in zip(b[i], b[j]))
                w = Q[i, j] if i == j else 2.0 * Q[i, j]
                terms[m] = terms.get(m, 0.0) + w
        return Polynomial(dim, terms)


def gram_basis(dim: int, max_half_deg: int, min_half_deg: int = 0) -> list:
    """Monomials of total degree in [min_half_deg, max_half_deg], grlex."""
    return [m for m in monomial_basis(dim, max_half_deg) if sum(m) >= min_half_deg]


# -- constraints -----------------------------------------------------------

@dataclass
class PositivityConstraint:
    """target - sum r_i * a_i - sum s_j * b_j must be SOS."""

    cid: str
    target: object                      # Polynomial or LinPoly
    equality_generators: list = field(default_factory=list)
    inequality_generators: list = field(default_factory=list)

    def __post_init__(self):
        dims = {g.dim for g in self.equality_generators}
        dims |= {g.dim for g in self.inequality_generators}
        dims.add(self.target.dim)
        if len(dims) != 1:
            raise ValueError("all constraint polynomials must share one dimension")
        self.dim = dims.pop()

    def as_linpoly(self) -> LinPoly:
        t = self.target
        return t if isinstance(t, LinPoly) else LinPoly.from_poly(t)


def _even_up(d: int) -> int:
    return d if d % 2 == 0 else d + 1


def gram_psd(min_eigenvalue: float, gram) -> bool:
    """Whether a Gram block is PSD: min eig >= -GRAM_EIG_TOL * max(1, ||Q||_F)."""
    return min_eigenvalue >= -GRAM_EIG_TOL * max(1.0, float(np.linalg.norm(gram)))


@dataclass
class SosCertificate:
    """A solved SOS program read back as polynomials.

    free_multipliers holds the free multiplier polynomial of each
    equality generator.  The pipeline reads only the Gram blocks, but the
    Positivstellensatz identity target = s0 + sum r_k * g_k is checkable
    only with the r_k, so they stay with the certificate.
    """
    gram_blocks: dict = field(default_factory=dict)       # id -> GramRepresentation
    free_multipliers: dict = field(default_factory=dict)  # id -> Polynomial
    residual_norm: float = float("nan")
    min_eigenvalues: dict = field(default_factory=dict)
    status: str = FEASIBLE
    solver_status: str = ""

    def quality(self) -> str:
        if self.residual_norm <= RESIDUAL_OK and all(
            gram_psd(e, self.gram_blocks[bid].gram)
            for bid, e in self.min_eigenvalues.items()
        ):
            return "ok"
        if self.residual_norm <= RESIDUAL_MARGINAL:
            return "marginal"
        return "poor"


# -- assembly --------------------------------------------------------------

def assemble(constraints, identities=()) -> SdpProblem:
    """Flatten Positivstellensatz constraints into one block-PSD program.

    identities: extra LinPoly expressions required to vanish identically
    (exact linear equality rows, no PSD block).
    """
    scalars = {}       # name -> column of F
    psd_blocks, gram_layout = [], {}
    b, F, gram_parts = [], [], []   # F: (row, column, value) entries
    # (dim, half degree, min degree) -> (basis, exponents of b_i + b_j in
    # svec order, diagonal mask)
    pairs = {}
    # pairs key + generator terms -> (basis, per entry: grlex rank, svec
    # column in the block, scaled coefficient)
    tables = {}

    def declare_scalar(name):
        return scalars.setdefault(name, len(scalars))

    def add_gram_block(grams, used, bid, dim, half, lo, gen_terms):
        key = (dim, half, lo, gen_terms)
        if key not in tables:
            if key[:3] not in pairs:
                basis = gram_basis(dim, half, min_half_deg=lo)
                z = _exponents(basis, dim)
                # svec order (backend.svec_layout): the upper triangle row by row
                i, j = np.nonzero(np.tri(len(basis), dtype=bool).T)
                pairs[key[:3]] = (basis, z[i] + z[j], i == j)
            basis, z, diag = pairs[key[:3]]
            monos, coeffs = zip(*gen_terms)
            c = np.array(coeffs)
            # entries run over the svec columns, then over the generator's terms
            ranks = grlex_rank((z[:, None] + _exponents(monos, dim)).reshape(-1, dim))
            cols = np.repeat(np.arange(len(z)), len(c))
            vals = np.where(diag[:, None], -c, -2.0 * c / _SQRT2).ravel()
            tables[key] = (basis, ranks, cols, vals)
        table = tables[key]
        gram_layout[bid] = list(table[0])
        grams.append((len(psd_blocks), table))
        psd_blocks.append((bid, len(table[0])))
        used.append(table[1])

    def add_rows(used, frows, rhs, grams=()):
        # used: arrays of the grlex ranks that have a row; frows[rank]:
        # free-scalar column -> coefficient; rhs[rank]: right-hand side
        used = np.concatenate(used)
        mask = np.zeros(used.max(initial=-1) + 1, dtype=bool)
        mask[used] = True
        row = np.cumsum(mask) + (len(b) - 1)     # row of each used rank
        b.extend(rhs.get(r, 0.0) for r in np.flatnonzero(mask).tolist())
        row_of = row.tolist()
        F.extend([(row_of[r], col, v) for r in sorted(frows) for col, v in frows[r].items()])
        for k, (_, ranks, cols, vals) in grams:
            gram_parts.append((k, row[ranks], cols, vals))

    def scalar_rows(lp):
        # a LinPoly's ranks, its free-scalar rows, and (rank, expression) pairs
        ranks = grlex_rank(_exponents(lp.terms, lp.dim))
        exprs = list(zip(ranks.tolist(), lp.terms.values()))
        frows = {r: {scalars[k]: v for k, v in e.items() if k is not None} for r, e in exprs}
        return ranks, frows, exprs

    for cons in constraints:
        dim = cons.dim
        target = cons.as_linpoly()
        # declaring a known name does nothing, so only new names are sorted
        for v in sorted(target.variables() - scalars.keys()):
            declare_scalar(v)

        d_t = target.degree()
        d0 = _even_up(d_t)

        # identity target - sum r a - sum s b - s0 = 0 coefficient-wise,
        # the known value of each monomial moved to the right-hand side
        ranks, frows, exprs = scalar_rows(target)
        rhs = {r: -e[None] for r, e in exprs if None in e}
        used = [ranks]

        # free multipliers r_i on equality generators
        for idx, a in enumerate(cons.equality_generators):
            cap = d_t - a.degree()
            if cap < 0:
                # generator degree exceeds the target's: the only multiplier
                # that keeps the identity balanced is zero, so drop it
                continue
            basis_r = monomial_basis(dim, cap)
            ranks = grlex_rank((_exponents(basis_r, dim)[:, None]
                                + _exponents(a.terms, dim)).reshape(-1, dim))
            used.append(ranks)
            ranks = iter(ranks.tolist())
            for mono_r in basis_r:
                col = declare_scalar(f"{cons.cid}:r{idx}[{_mono_tag(mono_r)}]")
                for ca in a.terms.values():
                    row = frows.setdefault(next(ranks), {})
                    # summed: a target scalar may carry the same name
                    row[col] = row.get(col, 0.0) - ca

        # When the identity has no constant term and every generator is
        # nonnegative at the origin, each SOS multiplier attached to a
        # generator that is strictly positive there is forced to vanish at 0.
        # Dropping the constant monomial from those Gram bases is then
        # lossless and removes a structurally singular row (the problem
        # would otherwise have no strictly feasible point).
        zero_mono = (0,) * dim
        origin_forced = (
            not frows.get(0) and rhs.get(0, 0.0) == 0.0
            and all(a.terms.get(zero_mono, 0.0) == 0.0 for a in cons.equality_generators)
            and all(g.terms.get(zero_mono, 0.0) >= 0.0 for g in cons.inequality_generators)
        )

        # SOS multipliers s_j on inequality generators
        grams = []
        for idx, g in enumerate(cons.inequality_generators):
            sdeg = d_t - g.degree()
            sdeg -= sdeg % 2
            if sdeg < 0:
                raise DegreeBookkeepingError(
                    f"{cons.cid}: inequality generator {idx} (degree {g.degree()}) "
                    f"exceeds the target degree {d_t}"
                )
            lo_j = 1 if (origin_forced and g.terms.get(zero_mono, 0.0) > 0.0) else 0
            add_gram_block(grams, used, f"{cons.cid}:s{idx + 1}", dim, sdeg // 2,
                           min(lo_j, sdeg // 2), tuple(g.terms.items()))

        # master SOS block s0 (generator 1): parity filter on total degree
        # only; ranks are graded, so the lowest rank has the lowest degree
        first = min((int(r.min()) for r in used if r.size), default=0)
        support_min = 0
        while math.comb(support_min + dim, dim) <= first:
            support_min += 1
        lo = (support_min + 1) // 2
        add_gram_block(grams, used, f"{cons.cid}:s0", dim, d0 // 2, min(lo, d0 // 2),
                       ((zero_mono, 1.0),))
        add_rows(used, frows, rhs, grams)

    for ident in identities:
        for v in sorted(ident.variables() - scalars.keys()):
            declare_scalar(v)
        ranks, frows, exprs = scalar_rows(ident)
        add_rows([ranks], frows, {r: -e.get(None, 0.0) for r, e in exprs})

    layout, nx = svec_layout(psd_blocks)
    A = [np.concatenate(part) for part in
         zip(*((r, cols + layout[k][2].start, vals) for k, r, cols, vals in gram_parts))]
    problem = SdpProblem(psd_blocks, list(scalars), A or ([], [], []),
                         list(zip(*F)) or ([], [], []), b, np.zeros(nx),
                         gram_layout)
    problem.validate()
    return problem


def _exponents(monos, dim: int) -> np.ndarray:
    """Monomials (a terms dict or a sequence) as the rows of an (m, dim) int array."""
    return np.fromiter(chain.from_iterable(monos), dtype=np.intp,
                       count=len(monos) * dim).reshape(-1, dim)


def certificate_from_solution(problem: SdpProblem, sol: SdpSolution, dim: int) -> SosCertificate:
    grams = {bid: GramRepresentation(basis=basis, gram=sol.block_values[bid])
             for bid, basis in problem.gram_layout.items() if bid in sol.block_values}
    # group free scalars back into multiplier polynomials by name prefix
    free = {}
    for name, value in sol.scalar_values.items():
        if "[" not in name or not name.endswith("]"):
            continue
        prefix, tag = name[:-1].split("[", 1)
        free.setdefault(prefix, {})[mono_from_tag(tag)] = value
    multipliers = {k: Polynomial(dim, v) for k, v in free.items()}
    return SosCertificate(
        gram_blocks=grams,
        free_multipliers=multipliers,
        residual_norm=sol.primal_residual,
        min_eigenvalues=dict(sol.min_eigenvalues),
        status=sol.status,
        solver_status=sol.solver_status,
    )


# -- top-level operations --------------------------------------------------

def sos_decompose(p: Polynomial) -> SosCertificate:
    """Find a Gram representation p = Z^T Q Z, or report infeasibility."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree() % 2 != 0:
        raise ValueError(f"degree {p.degree()} is odd; not a candidate SOS")
    cons = PositivityConstraint(cid="sos", target=p)
    problem = assemble([cons])
    sol = solve(problem)
    if sol.status != FEASIBLE:
        return SosCertificate(status=sol.status, solver_status=sol.solver_status)
    cert = certificate_from_solution(problem, sol, p.dim)
    gram = cert.gram_blocks["sos:s0"]
    recon = gram.polynomial(p.dim)
    cert.residual_norm = (recon - p).coeff_norm()
    return cert


def extract_sos_split(cert: SosCertificate, block: str) -> list:
    """Symmetric factorization of a Gram block into squared polynomials."""
    if block not in cert.gram_blocks:
        raise KeyError(f"no Gram block {block!r}")
    rep = cert.gram_blocks[block]
    Q = 0.5 * (rep.gram + rep.gram.T)
    w, V = np.linalg.eigh(Q)
    if not gram_psd(w.min(), Q):
        raise NumericalInfeasibility(
            f"block {block!r} has eigenvalue {w.min():.3e} below tolerance"
        )
    w = np.clip(w, 0.0, None)
    dim = len(rep.basis[0])
    out = []
    for k in range(len(w) - 1, -1, -1):  # largest eigenvalue first
        if w[k] == 0.0:
            continue
        coeffs = np.sqrt(w[k]) * V[:, k]
        terms = {m: c for m, c in zip(rep.basis, coeffs) if c != 0.0}
        if terms:
            out.append(Polynomial(dim, terms))
    return out
