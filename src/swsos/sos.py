"""SOS decomposition and Positivstellensatz constraint assembly.

Constraint templates follow the classic recipe: a target polynomial minus
free-multiplier combinations of equality generators, minus SOS-multiplier
combinations of inequality generators must equal one master SOS form.
Everything is flattened coefficient-wise, one row per monomial in grlex
order, into one block-PSD program in array form (`backend.SdpProblem`),
which `solve` (imported from `backend`) solves.  Decision polynomials are
`LinPoly`s; `LinPoly * Polynomial` is `mul_poly`, so `poly.lie_derivative`
takes the Lie derivative of a LinPoly as of a Polynomial.  A LinPoly is
held as arrays of (monomial, scalar, coefficient) entries that are summed
only where rounding requires it (see `LinPoly`), and `assemble` sums each
target once.

Rows are numbered by grlex rank, a monomial's position in `monomial_basis`
order (`poly.grlex_rank`, computed from the exponents alone).  A
constraint's rows are the sorted union of the ranks that its target, its
equality multipliers and its Gram blocks use; a mask over the ranks and
its cumulative sum give each rank its row.  The free-scalar entries of
the target and the equality multipliers are arrays, stable-sorted by rank
into row order, and the right-hand sides one array per constraint.  A
Gram block's coefficients depend only on its basis and its generator, so
`assemble` builds one pair table per (dimension, half degree, minimum
degree) and call (the basis, the exponents of b_i * b_j in svec order and
the weight and svec scale of each column, from `backend.svec_triangle`)
and derives one entry table per generator from it: the rank of each
entry's monomial, its svec column and its scaled coefficient.  The same
basis and generator recur across constraints (the box generators sit in
all of them), so a block mostly appends a table it finds.  Nothing
outlives the call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# INFEASIBLE is re-exported for callers that import it from here
from .backend import (FEASIBLE, INACCURATE_TOL, INFEASIBLE, SdpProblem, SdpSolution,
                      solve, svec_offsets, svec_triangle)
from .poly import Monomial, Polynomial, grlex_rank, monomial_basis

GRAM_EIG_TOL = 1e-7
RESIDUAL_OK = 1e-7


class DegreeBookkeepingError(ValueError):
    """An inequality generator has higher degree than its constraint's
    target, so no SOS multiplier keeps the identity balanced."""


class NumericalInfeasibility(RuntimeError):
    """A Gram matrix fails its PSD tolerance; extraction refused."""


# -- decision polynomials --------------------------------------------------

class LinPoly:
    """Polynomial whose coefficients are affine expressions in named scalars.

    Held as parallel arrays with one entry per term: `exps` the exponent
    rows, `idx` an index into the tuple `names`, whose entry 0 is None (the
    constant part), and `vals` the coefficients.  Entries that share a
    monomial and a scalar add up.  `terms` is the dict view, monomial ->
    {None: constant, var_name: coefficient}.

    `+`, `-`, `scale`, `diff` and `mul_poly` append or map entries.  The
    entries of one (monomial, scalar) pair are summed, in entry order, only
    where the dict-of-dicts form, which summed after every operation, would
    round otherwise:

    - before `diff`, `scale` or `mul_poly` of an unsummed polynomial;
    - for the right operand of `+` and `-`, never for the left one;
    - for the dict view, `variables`, `degree` and `instantiate`;
    - once per target in `assemble`.

    A sum drops exact zeros and lists monomials, then the scalars of each,
    in first-appearance order, so values and orders are those of the dict
    form.  (Were a left operand's own entries to cancel exactly and a later
    operand bring the term back, the dict form would have listed it last.)
    """

    __slots__ = ("dim", "exps", "idx", "vals", "names", "summed")

    def __init__(self, dim: int, terms: dict | None = None):
        names = {None: 0}
        exps, idx, vals = [], [], []
        for mono, expr in (terms or {}).items():
            for k, v in expr.items():
                if v != 0.0:
                    exps.append(tuple(mono))
                    idx.append(names.setdefault(k, len(names)))
                    vals.append(float(v))
        self._set(dim, _exponents(exps, dim), np.array(idx, dtype=np.intp),
                  np.array(vals, dtype=float), tuple(names), True)

    def _set(self, dim, exps, idx, vals, names, summed):
        self.dim, self.exps, self.idx, self.vals = dim, exps, idx, vals
        self.names, self.summed = names, summed
        return self

    def _new(self, exps, idx, vals, names=None, summed=True) -> "LinPoly":
        return object.__new__(LinPoly)._set(
            self.dim, exps, idx, vals, self.names if names is None else names, summed)

    @staticmethod
    def from_poly(p: Polynomial) -> "LinPoly":
        vals = np.fromiter(p.terms.values(), dtype=float, count=len(p.terms))
        return object.__new__(LinPoly)._set(
            p.dim, _exponents(p.terms, p.dim), np.zeros(len(vals), dtype=np.intp),
            vals, _CONSTANT, True)

    @staticmethod
    def decision(dim: int, name: str, monomials) -> "LinPoly":
        """Fresh decision polynomial with one scalar per basis monomial."""
        return object.__new__(LinPoly)._set(
            dim, _exponents(monomials, dim), np.arange(1, len(monomials) + 1),
            np.ones(len(monomials)),
            (None, *(f"{name}[{_mono_tag(m)}]" for m in monomials)), True)

    def collect(self) -> "LinPoly":
        """This polynomial with like terms summed: one entry per (monomial,
        scalar) pair and no exact zeros; itself when it is summed already."""
        if self.summed:
            return self
        if not self.vals.size:
            return self._new(self.exps, self.idx, self.vals)
        E = self.exps
        base = int(E.max()) + 1
        if base ** self.dim * len(self.names) < 2 ** 62:
            mono = E[:, 0]              # exponents as digits in base `base`
            for k in range(1, self.dim):
                mono = mono * base + E[:, k]
        else:
            mono = grlex_rank(E)        # dense, so it fits where the monomials do
        first, sums = _sum_entries(mono * len(self.names) + self.idx,
                                   len(self.names), self.vals)
        keep = sums != 0.0
        first = first[keep]
        return self._new(E[first], self.idx[first], sums[keep])

    @property
    def terms(self) -> dict:
        s = self.collect()
        out = {}
        for m, k, v in zip(map(tuple, s.exps.tolist()), s.idx.tolist(), s.vals.tolist()):
            out.setdefault(m, {})[s.names[k]] = v
        return out

    def variables(self):
        s = self.collect()
        return {s.names[k] for k in set(s.idx.tolist())} - {None}

    def degree(self) -> int:
        return int(self.collect().exps.sum(axis=1).max(initial=0))

    def _append(self, other: "LinPoly", negate: bool) -> "LinPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        other = other.collect()
        names, idx = self.names, other.idx
        if names[:len(other.names)] != other.names:
            if other.names[:len(names)] == names:
                names = other.names
            else:
                pos = {k: i for i, k in enumerate(names)}
                for k in other.names:
                    pos.setdefault(k, len(pos))
                idx = np.array([pos[k] for k in other.names], dtype=np.intp)[idx]
                names = tuple(pos)
        return self._new(np.concatenate([self.exps, other.exps]),
                         np.concatenate([self.idx, idx]),
                         np.concatenate([self.vals, -other.vals if negate else other.vals]),
                         names, summed=False)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = LinPoly.from_poly(other)
        return self._append(other, False)

    def __sub__(self, other):
        # x - v is x + (-v) bit for bit, signed zeros included
        if isinstance(other, Polynomial):
            other = LinPoly.from_poly(other)
        return self._append(other, True)

    def scale(self, c: float) -> "LinPoly":
        s = self.collect()
        vals = s.vals * float(c)
        keep = vals != 0.0
        return s._new(s.exps[keep], s.idx[keep], vals[keep])

    def mul_poly(self, p: Polynomial) -> "LinPoly":
        # entry by entry, each times p's terms in order: the order in which
        # the dict form added up each product
        s = self.collect()
        c = np.fromiter(p.terms.values(), dtype=float, count=len(p.terms))
        exps = (s.exps[:, None] + _exponents(p.terms, self.dim)).reshape(-1, self.dim)
        return s._new(exps, np.repeat(s.idx, len(c)), (s.vals[:, None] * c).ravel(),
                      summed=False)

    __mul__ = mul_poly

    def diff(self, k: int) -> "LinPoly":
        # m -> m - e_k is one-to-one, so nothing is summed, and v * e != 0
        s = self.collect()
        e = s.exps[:, k]
        keep = e > 0
        exps = s.exps[keep]
        exps[:, k] -= 1
        return s._new(exps, s.idx[keep], s.vals[keep] * e[keep])

    def instantiate(self, values: dict) -> Polynomial:
        terms = {}
        for m, expr in self.terms.items():
            c = expr.get(None, 0.0) + sum(v * values[k] for k, v in expr.items() if k is not None)
            if c != 0.0:
                terms[m] = c
        return Polynomial(self.dim, terms)


_CONSTANT = (None,)     # the names of a LinPoly with constant coefficients


def _sum_entries(key, per_group: int, vals):
    """Sum the entries that share a key, each key's in entry order.

    Returns the index of each key's first entry and its sum, keys grouped
    by key // per_group: groups in the order of their first entries, keys
    within a group in the order of theirs.
    """
    order = np.argsort(key, kind="stable")
    k = key[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = k[1:] != k[:-1]
    inverse = np.empty(len(k), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    sums = np.bincount(inverse, weights=vals)   # adds in entry order
    first = order[new]
    g = k[new] // per_group                     # sorted, so groups are runs
    new_group = np.ones(len(g), dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    group_first = np.minimum.reduceat(first, np.flatnonzero(new_group))
    by_appearance = np.lexsort((first, group_first[np.cumsum(new_group) - 1]))
    return first[by_appearance], sums[by_appearance]


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
        if self.residual_norm <= INACCURATE_TOL:
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
    # b: one array per constraint or identity; F: (rows, columns, values)
    b, F, gram_parts = [], [], []
    # (dim, half degree, min degree) -> (basis, exponents of b_i + b_j in
    # svec order, weight and svec scale of each column)
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
                i, j, scale = svec_triangle(len(basis))
                # b_i b_j carries Q[i, j] + Q[j, i]: weight 2 off the diagonal
                pairs[key[:3]] = (basis, z[i] + z[j], 1.0 + (i != j), scale)
            basis, z, weight, scale = pairs[key[:3]]
            monos, coeffs = zip(*gen_terms)
            c = np.array(coeffs)
            # entries run over the svec columns, then over the generator's terms
            ranks = grlex_rank((z[:, None] + _exponents(monos, dim)).reshape(-1, dim))
            cols = np.repeat(np.arange(len(z)), len(c))
            vals = (-(weight[:, None] * c) / scale[:, None]).ravel()
            tables[key] = (basis, ranks, cols, vals)
        table = tables[key]
        gram_layout[bid] = list(table[0])
        grams.append((len(psd_blocks), table))
        psd_blocks.append((bid, len(table[0])))
        used.append(table[1])

    def add_rows(used, free, known, fill, grams=()):
        # used: arrays of the grlex ranks that have a row; free: (ranks,
        # columns, values) of the free-scalar entries; known: (ranks,
        # values) of the right-hand side, which is fill elsewhere
        used = np.concatenate(used)
        mask = np.zeros(used.max(initial=-1) + 1, dtype=bool)
        mask[used] = True
        first_row = sum(map(len, b))
        row = np.cumsum(mask) + (first_row - 1)     # row of each used rank
        rhs = np.full(np.count_nonzero(mask), fill)
        rhs[row[known[0]] - first_row] = known[1]
        b.append(rhs)
        ranks, cols, vals = free
        by_row = np.argsort(ranks, kind="stable")   # entry order within a row
        F.append((row[ranks[by_row]], cols[by_row], vals[by_row]))
        for k, (_, ranks, cols, vals) in grams:
            gram_parts.append((k, row[ranks], cols, vals))

    def target_rows(lp):
        # lp summed once: its ranks, its free-scalar entries (rank, column,
        # value) and its right-hand side (rank, value); new names declared
        lp = lp.collect()
        for v in sorted(lp.variables() - scalars.keys()):
            declare_scalar(v)
        ranks = grlex_rank(lp.exps)
        column = np.array([scalars.get(k, -1) for k in lp.names], dtype=np.intp)
        free = lp.idx != 0
        return (lp, ranks, (ranks[free], column[lp.idx[free]], lp.vals[free]),
                (ranks[~free], -lp.vals[~free]))

    for cons in constraints:
        dim = cons.dim
        target, ranks, target_free, known = target_rows(cons.as_linpoly())
        d_t = target.degree()
        d0 = _even_up(d_t)

        # identity target - sum r a - sum s b - s0 = 0 coefficient-wise,
        # the known value of each monomial moved to the right-hand side
        used, free = [ranks], [target_free]

        # free multipliers r_i on equality generators
        shared = False
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
            declared = len(scalars)
            cols = [declare_scalar(f"{cons.cid}:r{idx}[{_mono_tag(m)}]") for m in basis_r]
            shared |= len(scalars) - declared < len(cols)
            ca = np.fromiter(a.terms.values(), dtype=float, count=len(a.terms))
            free.append((ranks, np.repeat(cols, len(ca)), np.tile(-ca, len(cols))))
        free = tuple(map(np.concatenate, zip(*free)))
        if shared:
            # a name declared before may be a target scalar's: its entries
            # in a row add up, in place of the first, zeros kept
            first, sums = _sum_entries(free[0] * len(scalars) + free[1], 1,
                                       free[2])
            free = (free[0][first], free[1][first], sums)

        # When the identity has no constant term and every generator is
        # nonnegative at the origin, each SOS multiplier attached to a
        # generator that is strictly positive there is forced to vanish at 0.
        # Dropping the constant monomial from those Gram bases is then
        # lossless and removes a structurally singular row (the problem
        # would otherwise have no strictly feasible point).  Rank 0 is the
        # constant monomial; every target entry there is nonzero.
        zero_mono = (0,) * dim
        origin_forced = (
            not (known[0] == 0).any() and not (free[0] == 0).any()
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
        add_rows(used, free, known, 0.0, grams)

    for ident in identities:
        _, ranks, free, known = target_rows(ident)
        # a monomial with no constant has right-hand side -0.0, the
        # negated 0.0 of an absent constant
        add_rows([ranks], free, known, -0.0)

    offsets = svec_offsets([n for _, n in psd_blocks])
    A = [np.concatenate(part) for part in
         zip(*((r, cols + offsets[k], vals) for k, r, cols, vals in gram_parts))]
    problem = SdpProblem(psd_blocks, list(scalars), A or ([], [], []),
                         [np.concatenate(part) for part in zip(*F)] or ([], [], []),
                         np.concatenate(b) if b else [], np.zeros(offsets[-1]),
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
