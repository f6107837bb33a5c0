"""Sparse multivariate polynomials over float coefficients.

Monomials are exponent tuples; the canonical term order everywhere is
graded lexicographic (total degree first, then x1 before x2, ...), which
keeps Gram indexing and all serialized output deterministic.  Evaluation,
at one point or at many, runs the polynomial's cached term list through
`_kernels.eval_terms`.
"""
from __future__ import annotations

import itertools
import math
import re

import numpy as np

from . import _kernels

Monomial = tuple  # exponent tuple, one entry per variable

#: coefficients below this are dropped at *display* time only
DISPLAY_CLEANUP = 1e-4


def grlex_key(mono: Monomial):
    """Sort key for graded lexicographic order (x1 largest)."""
    return (sum(mono), tuple(-e for e in mono))


class Polynomial:
    """Immutable sparse polynomial in n variables."""

    __slots__ = ("dim", "terms", "_compiled")

    def __init__(self, dim: int, terms: dict | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for key, c in (terms or {}).items():
            mono = tuple(int(e) for e in key)
            if mono != tuple(key):
                raise ValueError(f"non-integral exponent in {tuple(key)}")
            if len(mono) != dim:
                raise ValueError(f"monomial {mono} has wrong dimension (expected {dim})")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            # integral keys of one dict are distinct monomials: no merging
            c = float(c)
            if c != 0.0:
                clean[mono] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, {})

    @staticmethod
    def constant(dim: int, c: float) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: c})

    @staticmethod
    def variable(dim: int, k: int) -> "Polynomial":
        e = [0] * dim
        e[k] = 1
        return Polynomial(dim, {tuple(e): 1.0})

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Monomial) -> float:
        return self.terms.get(tuple(mono), 0.0)

    def support(self):
        return sorted(self.terms, key=grlex_key)

    def coeff_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.terms.values()))

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dim, other)
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0.0) + c
        return Polynomial(self.dim, t)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.dim, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                t[m] = t.get(m, 0.0) + c1 * c2
        return Polynomial(self.dim, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------
    def _term_list(self):
        terms = self._compiled
        if terms is None:
            monos = self.support()
            terms = _kernels.compile_terms([self.terms[m] for m in monos], monos)
            object.__setattr__(self, "_compiled", terms)
        return terms

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        return _kernels.eval_terms(self._term_list(), x.tolist())

    def eval_columns(self, cols) -> np.ndarray:
        """Evaluate at the m points whose coordinates are the rows of
        cols (n, m), one row per variable (contiguous rows are fastest).

        Every value is the scalar call's, bit for bit: eval_columns(X.T)[k]
        == self(X[k]).
        """
        cols = np.asarray(cols, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] != self.dim:
            raise ValueError(f"columns have shape {cols.shape}, expected ({self.dim}, m)")
        # inf and nan come out as in the scalar call, which does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            v = _kernels.eval_terms(self._term_list(), list(cols))
        # a constant or zero polynomial never touches a column
        return v if isinstance(v, np.ndarray) else np.full(cols.shape[1], v)

    def eval_many(self, X) -> np.ndarray:
        """Evaluate at every row of X (m, n): eval_columns on one
        contiguous copy of its columns, so eval_many(X)[k] == self(X[k]).
        A single row is the scalar call on its floats, the same multiplies
        and adds without the per-column array overhead."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points have shape {X.shape}, expected (m, {self.dim})")
        if len(X) == 1:
            return np.array([_kernels.eval_terms(self._term_list(), X[0].tolist())])
        return self.eval_columns(X.T.copy())

    # -- calculus ------------------------------------------------------
    def diff(self, k: int) -> "Polynomial":
        t = {}
        for m, c in self.terms.items():
            if m[k] == 0:
                continue
            dm = list(m)
            dm[k] -= 1
            dm = tuple(dm)
            t[dm] = t.get(dm, 0.0) + c * m[k]
        return Polynomial(self.dim, t)

    def gradient(self) -> "PolyVector":
        return PolyVector([self.diff(k) for k in range(self.dim)])

    # -- display -------------------------------------------------------
    def cleanup(self, threshold: float = DISPLAY_CLEANUP) -> "Polynomial":
        """Drop terms with |coeff| < threshold (reporting only)."""
        return Polynomial(self.dim, {m: c for m, c in self.terms.items() if abs(c) >= threshold})

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in self.support():
            c = self.terms[mono]
            factors = []
            for k, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{k + 1}")
                elif e > 1:
                    factors.append(f"x{k + 1}^{e}")
            if factors:
                body = "*".join(factors)
                mag = f"{abs(c):.12g}*{body}" if abs(c) != 1.0 else body
            else:
                mag = f"{abs(c):.12g}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, mag))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, mag in parts[1:]:
            out += f" {sign} {mag}"
        return out

    def __repr__(self):
        return f"Polynomial({self.dim}, {self.to_string()!r})"


class PolyVector:
    """Ordered list of polynomials sharing one dimension (a vector field)."""

    __slots__ = ("components", "dim")

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("empty vector")
        dim = components[0].dim
        if any(p.dim != dim for p in components):
            raise ValueError("components have mixed dimensions")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, *a):
        raise AttributeError("PolyVector is immutable")

    def __len__(self):
        return len(self.components)

    def __getitem__(self, k):
        return self.components[k]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, PolyVector) and self.components == other.components

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        xs = x.tolist()
        return np.array([_kernels.eval_terms(p._term_list(), xs) for p in self.components])

    def to_strings(self):
        return [p.to_string() for p in self.components]


# -- core operations -----------------------------------------------------

def lie_derivative(V, F: PolyVector):
    """Directional derivative <grad V, F>, summed in k order, of a
    Polynomial or an `sos.LinPoly` V; the result has V's type."""
    if V.dim != F.dim:
        raise ValueError(f"dimension mismatch: {V.dim} vs {F.dim}")
    out = V.diff(0) * F[0]
    for k in range(1, V.dim):
        out = out + V.diff(k) * F[k]
    return out


def monomial_basis(n: int, d: int, include_constant: bool = True) -> list:
    """All monomials of total degree <= d in graded-lex order."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    # index combinations in lexicographic order are exponents in
    # decreasing lexicographic order, which is grlex within one degree
    monos = []
    for total in range(0 if include_constant else 1, d + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for k in combo:
                e[k] += 1
            monos.append(tuple(e))
    return monos


def grlex_rank(exponents) -> np.ndarray:
    """Position of each exponent row in `monomial_basis(n, d)`, the same for
    every d at least its degree.

    The basis lists lower degrees first and, within one degree, decreasing
    lexicographic order.  So the position of e with |e| = d counts the
    C(d - 1 + n, n) monomials of lower degree, then for each k < n the
    monomials of degree d that agree with e before x_k and exceed it at
    x_k: one per monomial in the n - k later variables of degree below
    r_k = d - e_1 - ... - e_k, C(r_k - 1 + n - k, n - k) of them.
    """
    E = np.asarray(exponents, dtype=np.intp)
    n = E.shape[1]
    rank = E[:, n - 1].copy()          # m = 1: C(r_(n-1), 1) = e_n
    rest = E.sum(axis=1)
    for k in range(n - 1):
        m = n - k
        c = rest + (m - 1)             # C(rest + m - 1, m), one factor at a time
        for i in range(1, m - 1):
            c *= rest + (m - 1 - i)
            c //= i + 1
        c *= rest
        c //= m
        rank += c
        if m > 2:                      # r_(k+1), unless the next m is 1
            rest -= E[:, k]
    return rank


def coefficients_equal(p: Polynomial, q: Polynomial) -> dict:
    """Per-monomial coefficient differences p - q; empty iff p == q."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for m in set(p.terms) | set(q.terms):
        r = p.terms.get(m, 0.0) - q.terms.get(m, 0.0)
        if r != 0.0:
            out[m] = r
    return out


# -- text grammar ---------------------------------------------------------
# sum of terms:  coeff * x1^a * x2^b ...   signs between terms, '*' optional
# between coefficient and variables, '^1' may be omitted.

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<sign>[+-])
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<var>x\d+)
      | (?P<pow>\^\d+)
      | (?P<mul>\*)
    )\s*""",
    re.VERBOSE,
)


class PolynomialParseError(ValueError):
    pass


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse the toolkit polynomial grammar into a Polynomial."""
    pos = 0
    n = len(text)
    tokens = []
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise PolynomialParseError(f"unexpected character at position {pos}: {text[pos:pos+10]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    if not tokens:
        raise PolynomialParseError("empty polynomial")

    terms = {}
    i = 0
    while i < len(tokens):
        sign = 1.0
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolynomialParseError("dangling sign")
        coeff = sign
        expo = [0] * dim
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "sign":
                break
            if kind == "mul":
                # a factor before it, and a number or variable right after
                after = tokens[i + 1][0] if i + 1 < len(tokens) else None
                if expect_factor or after not in ("num", "var"):
                    raise PolynomialParseError("'*' must stand between two factors")
                expect_factor = True
                i += 1
                continue
            if not expect_factor and kind in ("num",):
                raise PolynomialParseError(f"missing operator before {val!r}")
            if kind == "num":
                coeff *= float(val)
                saw_factor = True
                expect_factor = False
            elif kind == "var":
                k = int(val[1:]) - 1
                if not (0 <= k < dim):
                    raise PolynomialParseError(f"variable {val} out of range for dimension {dim}")
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][0] == "pow":
                    e = int(tokens[i + 1][1][1:])
                    i += 1
                expo[k] += e
                saw_factor = True
                expect_factor = False
            elif kind == "pow":
                raise PolynomialParseError("exponent without variable")
            i += 1
        if not saw_factor:
            raise PolynomialParseError("empty term")
        mono = tuple(expo)
        terms[mono] = terms.get(mono, 0.0) + coeff
    bad = [c for c in terms.values() if not math.isfinite(c)]
    if bad:
        raise PolynomialParseError(f"coefficient {bad[0]} is not finite")
    return Polynomial(dim, terms)


def parse_vector(texts, dim: int) -> PolyVector:
    return PolyVector([parse_polynomial(t, dim) for t in texts])
