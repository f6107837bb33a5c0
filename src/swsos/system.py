"""Polynomial switched systems on semi-algebraic partitions.

A system is a box, a family of regions and explicit boundary varieties
chi_ij.  A region is one record: its set {chi_i = 0, xi_ik >= 0}, which
answers membership through `SemiAlgebraicRegion.contains`, and its vertex
fields f_il, whose convex combinations are its uncertain field (simplicial
uncertainty; a single vertex encodes the certain case).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import eval_terms
from .poly import Polynomial, PolyVector, parse_polynomial, parse_vector

WITNESS_TOL = 1e-9
SIMPLEX_TOL = 1e-12


class SystemFormatError(ValueError):
    pass


def on_simplex(weights) -> bool:
    """Every weight >= 0 and their sum within SIMPLEX_TOL of 1.

    Written so that a nan or infinite weight fails both tests.
    """
    weights = np.asarray(weights, dtype=float)
    return bool(np.all(weights >= 0) and abs(weights.sum() - 1.0) <= SIMPLEX_TOL)


@dataclass
class SemiAlgebraicRegion:
    rid: int
    chi: Polynomial
    xi: list                 # list[Polynomial]
    witness: np.ndarray
    vertices: list = field(default_factory=list)   # list[PolyVector] f_il

    def contains(self, x, tol: float):
        """|chi(x)| <= tol and every xi(x) >= -tol, at one point x with one
        float per variable (a list of floats is fastest) as a bool, or at
        each point of columns x (n, m) as a fresh bool mask of length m.

        Both evaluate the term lists with eval_terms, so each point's test
        is the pointwise one and a nan value fails it.  On columns nothing
        warns, and a constant chi or xi is one float and one comparison,
        never an m-length array."""
        if len(x) != self.chi.dim:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.chi.dim}")
        if isinstance(x, np.ndarray) and x.ndim == 2:
            cols = list(x)
            mask = np.ones(x.shape[1], dtype=bool)
            with np.errstate(over="ignore", invalid="ignore"):
                mask &= abs(eval_terms(self.chi._term_list(), cols)) <= tol
                for g in self.xi:
                    mask &= eval_terms(g._term_list(), cols) >= -tol
            return mask
        return (abs(eval_terms(self.chi._term_list(), x)) <= tol
                and all(eval_terms(g._term_list(), x) >= -tol for g in self.xi))


@dataclass
class BoundaryVariety:
    i: int
    j: int
    chi: Polynomial
    witness: np.ndarray | None = None

    @property
    def pair(self):
        return (self.i, self.j)


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)   # (name, status, detail)
    caveats: list = field(default_factory=list)

    def add(self, name, status, detail=""):
        self.checks.append((name, status, detail))

    @property
    def has_fail(self) -> bool:
        return any(s == "fail" for _, s, _ in self.checks)


@dataclass
class SwitchedSystem:
    dimension: int
    box: tuple               # (lo array, hi array)
    regions: dict            # rid -> SemiAlgebraicRegion
    boundaries: list         # list[BoundaryVariety]
    origin_regions: set = field(default_factory=set)
    source_hash: str = ""

    def __post_init__(self):
        pairs = set()
        for b in self.boundaries:
            if b.i == b.j:
                raise SystemFormatError(f"boundary ({b.i},{b.j}) must join distinct regions")
            if b.i not in self.regions or b.j not in self.regions:
                raise SystemFormatError(f"boundary ({b.i},{b.j}) references unknown region")
            if frozenset(b.pair) in pairs:
                raise SystemFormatError(f"boundary ({b.i},{b.j}) is declared twice")
            pairs.add(frozenset(b.pair))
        for rid in self.origin_regions:
            if rid not in self.regions:
                raise SystemFormatError(f"origin region {rid} is not a region")
        n = self.dimension
        witnesses = [(f"region {rid}", r.witness) for rid, r in self.regions.items()]
        witnesses += [(f"boundary ({b.i},{b.j})", b.witness) for b in self.boundaries
                      if b.witness is not None]
        for what, w in witnesses:
            if np.shape(w) != (n,):
                raise SystemFormatError(f"{what} witness has {np.size(w)} entries, not {n}")
        for rid, r in self.regions.items():
            if not r.vertices:
                raise SystemFormatError(f"region {rid} has no dynamics")
            for l, v in enumerate(r.vertices):
                if (len(v), v.dim) != (n, n):
                    raise SystemFormatError(
                        f"region {rid} vertex field {l} has {len(v)} components "
                        f"in {v.dim} variables, not {n} in {n}")

    # -- queries ------------------------------------------------------
    def locate(self, x, tol: float) -> set:
        """Region ids whose tol-relaxed membership test passes at x."""
        if tol <= 0:
            raise ValueError("tol must be > 0")
        x = [float(v) for v in x]
        return {rid for rid, r in self.regions.items() if r.contains(x, tol)}

    def field_at(self, rid: int, theta=None) -> PolyVector:
        """Convex combination of the region's vertex fields; theta None
        takes the first vertex."""
        vertices = self.regions[rid].vertices
        if theta is None:
            theta = [1.0] + [0.0] * (len(vertices) - 1)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(vertices),):
            raise ValueError(f"theta must have length {len(vertices)}")
        if not on_simplex(theta):
            raise ValueError(f"theta {theta.tolist()} is not on the simplex")
        comps = [Polynomial.zero(self.dimension) for _ in range(self.dimension)]
        for w, v in zip(theta, vertices):
            if w == 0.0:
                continue
            for k in range(self.dimension):
                comps[k] = comps[k] + v[k] * float(w)
        return PolyVector(comps)

    def boundary(self, i: int, j: int) -> BoundaryVariety:
        for b in self.boundaries:
            if {b.i, b.j} == {i, j}:
                return b
        raise KeyError(f"no boundary between regions {i} and {j}")

    def in_box(self, x) -> bool:
        lo, hi = self.box
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= lo) and np.all(x <= hi))

    # -- validation -----------------------------------------------------
    def validate(self, rng=None) -> ValidationReport:
        rep = ValidationReport()
        rng = rng or np.random.default_rng(0)
        for rid, r in sorted(self.regions.items()):
            ok = r.contains(r.witness, WITNESS_TOL)
            rep.add(f"region[{rid}].witness", "pass" if ok else "fail",
                    f"witness {r.witness.tolist()}")
        tol = 1e-6    # closure tolerance of the adjacency test
        for b in self.boundaries:
            name = f"boundary[{b.i},{b.j}]"
            if b.witness is not None and abs(b.chi(b.witness)) <= WITNESS_TOL:
                rep.add(f"{name}.witness", "pass", f"witness {b.witness.tolist()}")
                w = b.witness
            else:
                # no usable witness: the first zero the oracle's bisection
                # finds in the closure of both regions
                from .oracle import OracleConfig, sample_boundary
                pts = sample_boundary(self, b, OracleConfig(), rng)[0].tolist()
                w = next((p for p in pts if all(self.regions[side].contains(p, tol)
                                                for side in b.pair)), None)
                rep.add(f"{name}.witness", "pass" if w else "warn",
                        "zero located by sampling" if w else "no boundary witness found")
            if w is not None:
                for side in (b.i, b.j):
                    if not self.regions[side].contains(w, tol):
                        rep.add(f"{name}.adjacency[{side}]", "warn",
                                f"boundary witness not in closure of region {side}")
        zero = [0.0] * self.dimension
        for rid in sorted(self.origin_regions):
            ok = self.regions[rid].contains(zero, WITNESS_TOL)
            rep.add(f"origin_region[{rid}]", "pass" if ok else "fail",
                    "origin satisfies region membership" if ok else
                    "origin violates region membership")
        rep.caveats.append(
            "covering regularity is checked by sampled witnesses only; "
            "it is not a proof of the nice-covering conditions"
        )
        rep.caveats.append(
            "local straight-line escape (covering condition 4) has no finite test "
            "and is not checked"
        )
        return rep


# -- serialization -----------------------------------------------------------

def _integer(v, what):
    """v if it is a JSON integer; a float or a bool is a format error."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SystemFormatError(f"{what} must be an integer, not {v!r}")
    return v


def _numbers(v, k, what):
    """v as k floats if it is a JSON list of k numbers; a string, a bool
    or a list of another length is a format error."""
    if (not isinstance(v, list) or len(v) != k
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
        raise SystemFormatError(f"{what} must be a list of {k} numbers, not {v!r}")
    return [float(x) for x in v]


def parse_system(doc: dict, source_hash: str = "") -> SwitchedSystem:
    try:
        n = _integer(doc["dimension"], "dimension")
        pairs = [_numbers(b, 2, "box pair") for b in doc["box"]]
        lo = np.array([a for a, _ in pairs])
        hi = np.array([b for _, b in pairs])
        # the oracle draws lo + (hi - lo) * d, so the width must be finite
        # too; the RK4 kernels' box test relies on finite bounds as well
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if lo.shape != (n,) or not np.all(np.isfinite(width) & (lo < hi)):
            raise SystemFormatError("box must be n finite pairs [lo, hi] with lo < hi "
                                    "and a finite width hi - lo")
        regions = {}
        for rdoc in doc["regions"]:
            rid = _integer(rdoc["id"], "region id")
            if rid in regions:
                raise SystemFormatError(f"region id {rid} appears twice")
            regions[rid] = SemiAlgebraicRegion(
                rid=rid,
                chi=parse_polynomial(rdoc["chi"], n),
                xi=[parse_polynomial(s, n) for s in rdoc.get("xi", [])],
                witness=np.array(_numbers(rdoc["witness"], n, f"region {rid} witness")),
            )
        boundaries = []
        for bdoc in doc.get("boundaries", []):
            i = _integer(bdoc["i"], "boundary i")
            j = _integer(bdoc["j"], "boundary j")
            boundaries.append(BoundaryVariety(
                i=i, j=j, chi=parse_polynomial(bdoc["chi_ij"], n),
                witness=(np.array(_numbers(bdoc["witness"], n,
                                           f"boundary ({i},{j}) witness"))
                         if "witness" in bdoc else None),
            ))
        attached = set()
        for rid_s, vertices in doc["dynamics"].items():
            rid = int(rid_s)
            if rid in attached:
                raise SystemFormatError(f"dynamics for region {rid} appear "
                                        f"twice (key {rid_s!r})")
            if rid not in regions:
                raise SystemFormatError(f"dynamics for unknown region {rid}")
            attached.add(rid)
            regions[rid].vertices = [parse_vector(v, n) for v in vertices]
        origin = {_integer(r, "origin region")
                  for r in doc.get("origin_regions", [])}
    except SystemFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SystemFormatError(f"malformed system description: {exc}") from exc
    return SwitchedSystem(
        dimension=n,
        box=(lo, hi),
        regions=regions,
        boundaries=boundaries,
        origin_regions=origin,
        source_hash=source_hash,
    )


def load_system(path) -> SwitchedSystem:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_system(doc, source_hash=hashlib.sha256(raw).hexdigest())


def system_to_dict(sys: SwitchedSystem) -> dict:
    """The .sys document of a system, the inverse of parse_system.

    Nothing in the package writes a system file; this stays as the one way
    to save a SwitchedSystem built in code, and the round trip
    parse_system(system_to_dict(s)) is what tests pin the parser against.
    """
    lo, hi = sys.box
    return {
        "dimension": sys.dimension,
        "box": [[float(a), float(b)] for a, b in zip(lo, hi)],
        "regions": [
            {
                "id": rid,
                "chi": r.chi.to_string(),
                "xi": [g.to_string() for g in r.xi],
                "witness": [float(v) for v in r.witness],
            }
            for rid, r in sorted(sys.regions.items())
        ],
        "boundaries": [
            {
                "i": b.i,
                "j": b.j,
                "chi_ij": b.chi.to_string(),
                **({"witness": [float(v) for v in b.witness]} if b.witness is not None else {}),
            }
            for b in sys.boundaries
        ],
        "dynamics": {
            str(rid): [v.to_strings() for v in r.vertices]
            for rid, r in sorted(sys.regions.items())
        },
        "origin_regions": sorted(sys.origin_regions),
    }
