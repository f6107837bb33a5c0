"""Joint Lyapunov-certificate search for switched systems on partitions.

Builds one feasibility SDP from SwitchedSystem.conditions, the list of the
theorem's conditions that the sampling oracle checks too, per region i and
boundary pair (i, j):

    (pd)     V_i - phi - eps_i*chi_i - sum_k q_ik*xi_ik     is SOS
    (lie)    -<dV_i/dx, f_il> - rho_i*chi_i - ... - mu*m    is SOS, per vertex l
    (cross)  -<dV_i/dx, f_jl> - r_ij*chi_ij - nu*m          is SOS, per vertex l
    (glue)   V_i + p_ij*chi_ij = V_j                        exactly

where phi = MARGIN*(sum x_k^2 + sum x_k^deg) pins positive definiteness
and m = (sum x_k^2)^(deg/2) is the decrease margin, mu = nu = MARGIN.
The state-space box is threaded into every SOS constraint as extra
inequality generators (hi_k - x_k)(x_k - lo_k) >= 0; without them the
conditions are genuinely infeasible for degree reasons (the top-degree
form of a Lie derivative constraint would have to be PSD on its own).

A solver success is never reported as CERTIFIED directly: the extracted
certificate must first pass the sampling oracle.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .poly import DISPLAY_CLEANUP, Polynomial, lie_derivative, monomial_basis
from .sos import LinPoly, PositivityConstraint, assemble, \
    certificate_from_solution, SosCertificate
from .backend import FEASIBLE, INFEASIBLE, solve, svec_diagonal
from .system import BoundaryVariety, SwitchedSystem, SystemFormatError
from .oracle import OracleConfig, OracleReport, verify_certificate

CERTIFIED = "CERTIFIED"
NO_CERTIFICATE = "no-certificate-at-degree"
SUSPECT = "numerically-suspect"

ATTRACTIVE = "attractive_possible"
NOT_ATTRACTIVE = "not_attractive"

GLUE_RESIDUAL_TOL = 1e-7

# The one margin of the SOS conditions: the scale of the positive-
# definiteness floor (pd_epsilon) and of the decrease margins of the region
# (margin_mu) and cross (margin_nu) conditions, as the certificate's config
# block records them.
MARGIN = 1e-4


@dataclass
class CertificationConfig:
    lyapunov_degree: int = 6

    def __post_init__(self):
        if self.lyapunov_degree < 2 or self.lyapunov_degree % 2 != 0:
            raise ValueError("lyapunov_degree must be even and >= 2")


@dataclass
class Certificate:
    status: str
    lyapunov: dict = field(default_factory=dict)       # rid -> Polynomial
    gluing: dict = field(default_factory=dict)         # (i,j) -> Polynomial
    sos_evidence: SosCertificate = None
    config: CertificationConfig = None
    oracle_report: OracleReport = None
    attractive_pairs: list = field(default_factory=list)  # (i,j) that may slide
    glue_residuals: dict = field(default_factory=dict)
    system_hash: str = ""
    solve_seconds: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "detail": self.detail,
            "system_hash": self.system_hash,
            "solve_seconds": self.solve_seconds,
        }
        if self.config is not None:
            out["config"] = {
                "lyapunov_degree": self.config.lyapunov_degree,
                "margin_mu": MARGIN,
                "margin_nu": MARGIN,
                "pd_epsilon": MARGIN,
            }
        if self.lyapunov:
            out["lyapunov"] = {
                str(rid): V.cleanup(DISPLAY_CLEANUP).to_string()
                for rid, V in sorted(self.lyapunov.items())
            }
            out["lyapunov_full"] = {
                str(rid): V.to_string() for rid, V in sorted(self.lyapunov.items())
            }
        if self.gluing:
            out["gluing"] = {f"{i},{j}": p.to_string()
                             for (i, j), p in sorted(self.gluing.items())}
        if self.glue_residuals:
            out["glue_residuals"] = {f"{i},{j}": r
                                     for (i, j), r in sorted(self.glue_residuals.items())}
        out["attractive_pairs"] = [list(p) for p in self.attractive_pairs]
        if self.sos_evidence is not None:
            out["sos_evidence"] = {
                "solver_status": self.sos_evidence.solver_status,
                "residual_norm": self.sos_evidence.residual_norm,
                "quality": self.sos_evidence.quality(),
                "blocks": {
                    bid: {"size": rep.gram.shape[0],
                          "min_eigenvalue": self.sos_evidence.min_eigenvalues.get(bid)}
                    for bid, rep in sorted(self.sos_evidence.gram_blocks.items())
                },
            }
        if self.oracle_report is not None:
            out["oracle_report"] = self.oracle_report.to_dict()
        return out


# -- construction helpers -----------------------------------------------------

def _box_generators(sys: SwitchedSystem) -> list:
    lo, hi = sys.box
    n = sys.dimension
    gens = []
    for k in range(n):
        xk = Polynomial.variable(n, k)
        gens.append((float(hi[k]) - xk) * (xk - float(lo[k])))
    return gens


def _pd_floor(n: int, deg: int) -> Polynomial:
    """MARGIN*(sum x_k^2 + sum x_k^deg), terms in the order x_1^2,
    x_1^deg, x_2^2, ... of summing it up."""
    terms = {}
    for k in range(n):
        for e in (2, deg):
            mono = (0,) * k + (e,) + (0,) * (n - 1 - k)
            terms[mono] = terms.get(mono, 0.0) + MARGIN
    return Polynomial(n, terms)


def _margin(n: int, deg: int) -> Polynomial:
    """MARGIN*(sum x_k^2)^(deg/2) from its multinomial coefficients, terms
    in decreasing lexicographic order, the order of multiplying it out."""
    h = deg // 2
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), h):
        a = [combo.count(k) for k in range(n)]
        coeff = math.factorial(h) // math.prod(math.factorial(e) for e in a)
        terms[tuple(2 * e for e in a)] = coeff * MARGIN
    return Polynomial(n, terms)


def check_attractivity(sys: SwitchedSystem, pair) -> str:
    """SOS test for whether a boundary cannot host a sliding mode.

    NOT_ATTRACTIVE only when, for every vertex pair (f, g) of the adjacent
    regions, <dchi, f><dchi, g> - l*chi is SOS for some polynomial l and
    the solve ends native:optimal: the product of the normal components is
    then nonnegative on the variety, so the fields never point at it from
    both sides.  A product of theta-mixtures of the vertex fields expands
    into vertex products with nonnegative weights, so this covers the
    whole simplex.  Any other outcome, an inaccurate or stalled solve
    included, is ATTRACTIVE: sliding is not ruled out, and the cross-Lie
    conditions stay for the pair.
    """
    i, j = pair
    bnd = sys.boundary(i, j)   # raises KeyError for unknown pairs
    chi = bnd.chi
    for f in sys.regions[i].vertices:
        lf = lie_derivative(chi, f)
        for g in sys.regions[j].vertices:
            lg = lie_derivative(chi, g)
            cons = PositivityConstraint(
                cid="attract", target=LinPoly.from_poly(lf * lg),
                equality_generators=[chi])
            sol = solve(assemble([cons]))
            if not sol.solver_status.startswith("native:optimal:"):
                return ATTRACTIVE
    return NOT_ATTRACTIVE


def build_feasibility(sys: SwitchedSystem, cfg: CertificationConfig,
                      cross_pairs=None):
    """Assemble the joint feasibility SDP from sys.conditions(cross_pairs):
    a glue identity per continuity entry and a PositivityConstraint per
    other entry, in that list's order.

    cross_pairs: the boundaries that keep their cross-Lie constraints, a
    pair naming its boundary in either order; None keeps them on every
    boundary.

    Returns (SdpProblem, plan) where plan carries the decision-variable
    LinPoly objects needed to read the solution back.
    """
    n = sys.dimension
    deg = cfg.lyapunov_degree
    box_gens = _box_generators(sys)
    phi = _pd_floor(n, deg)
    margin = _margin(n, deg)

    V = {}
    for rid in sorted(sys.regions):
        basis = monomial_basis(n, deg,
                               include_constant=rid not in sys.origin_regions)
        V[rid] = LinPoly.decision(n, f"V{rid}", basis)

    # lie_derivative(-V, f) is -lie_derivative(V, f) bit for bit
    neg_V = {rid: lp.scale(-1.0) for rid, lp in V.items()}
    constraints, glue, identities = [], {}, []
    for c in sys.conditions(cross_pairs):
        on = c.domain
        if c.kind == "continuity":
            pdeg = max(deg - on.chi.degree(), 0)
            p = glue[on.pair] = LinPoly.decision(n, f"p{on.i}_{on.j}",
                                                 monomial_basis(n, pdeg))
            identities.append(V[on.i] + p.mul_poly(on.chi) - V[on.j])
            continue
        if isinstance(on, BoundaryVariety):
            eq, ineq = [on.chi], []
        else:
            eq = [] if on.chi.is_zero() else [on.chi]
            ineq = [g for g in on.xi if not g.is_zero()]
        target = (V[c.rid] - phi if c.kind == "positivity"
                  else lie_derivative(neg_V[c.rid], c.field) - margin)
        constraints.append(PositivityConstraint(
            cid=c.cid, target=target,
            equality_generators=eq, inequality_generators=ineq + box_gens))

    problem = assemble(constraints, identities=identities)
    # Minimizing total Gram trace keeps the returned certificate at a sane
    # coefficient scale (the feasible set is unbounded upward).
    problem.c[svec_diagonal([n for _, n in problem.psd_blocks])] = 1.0
    plan = {"V": V, "glue": glue, "constraints": constraints}
    return problem, plan


def require_valid(sys: SwitchedSystem):
    """Raise SystemFormatError naming every check of sys.validate() that
    fails."""
    validation = sys.validate()
    if validation.has_fail:
        bad = [n for n, s, _ in validation.checks if s == "fail"]
        raise SystemFormatError(f"system validation failed: {bad}")


def certify(sys: SwitchedSystem, cfg: CertificationConfig = None,
            oracle_cfg: OracleConfig = None) -> Certificate:
    """Run the full pipeline: attractivity test, SDP, extraction, oracle
    gate.

    The boundaries on which check_attractivity does not rule out sliding
    keep their cross conditions: one list of their declared pairs (b.pair)
    goes to build_feasibility, to the oracle and to attractive_pairs.
    """
    cfg = cfg or CertificationConfig()
    t0 = time.time()
    require_valid(sys)

    attractive = [b.pair for b in sys.boundaries
                  if check_attractivity(sys, b.pair) != NOT_ATTRACTIVE]
    problem, plan = build_feasibility(sys, cfg, cross_pairs=attractive)
    sol = solve(problem)
    cert = Certificate(status=SUSPECT, config=cfg, attractive_pairs=attractive,
                       system_hash=sys.source_hash)

    if sol.status != FEASIBLE:
        if sol.status == INFEASIBLE:
            cert.status = NO_CERTIFICATE
            cert.detail = (f"no certificate at degree {cfg.lyapunov_degree} "
                           f"({sol.solver_status})")
        else:
            cert.detail = f"solver failure: {sol.solver_status}"
        cert.solve_seconds = time.time() - t0
        return cert

    cert.sos_evidence = certificate_from_solution(problem, sol, sys.dimension)
    lyapunov = cert.lyapunov = {rid: lp.instantiate(sol.scalar_values)
                                for rid, lp in plan["V"].items()}
    gluing = cert.gluing = {pair: lp.instantiate(sol.scalar_values)
                            for pair, lp in plan["glue"].items()}

    glue_ok = True
    for b in sys.boundaries:
        difference = lyapunov[b.i] + gluing[(b.i, b.j)] * b.chi - lyapunov[b.j]
        residual = max(map(abs, difference.terms.values()), default=0.0)
        cert.glue_residuals[(b.i, b.j)] = residual
        glue_ok &= residual <= GLUE_RESIDUAL_TOL

    cert.oracle_report = verify_certificate(sys, lyapunov, oracle_cfg,
                                            attractive_pairs=attractive)

    if cert.oracle_report.passed and glue_ok:
        cert.status = CERTIFIED
        cert.detail = "oracle gate passed"
    else:
        reasons = []
        if not glue_ok:
            reasons.append("gluing residual above tolerance")
        if not cert.oracle_report.passed:
            reasons.append(f"oracle: {cert.oracle_report.verdict}")
        cert.detail = "; ".join(reasons)
    cert.solve_seconds = time.time() - t0
    return cert
