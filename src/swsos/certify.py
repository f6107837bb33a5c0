"""Joint Lyapunov-certificate search for switched systems on partitions.

Builds one feasibility SDP tying together, per region i and boundary pair
(i, j):

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

import time
from dataclasses import dataclass, field

from .poly import DISPLAY_CLEANUP, Polynomial, lie_derivative, \
    monomial_basis, coefficients_equal
from .sos import LinPoly, PositivityConstraint, assemble, \
    certificate_from_solution, SosCertificate
from .backend import FEASIBLE, INFEASIBLE, solve, svec_diagonal
from .system import SwitchedSystem
from .oracle import OracleConfig, OracleReport, verify_certificate

CERTIFIED = "CERTIFIED"
NO_CERTIFICATE = "no-certificate-at-degree"
SUSPECT = "numerically-suspect"

ATTRACTIVE = "attractive_possible"
NOT_ATTRACTIVE = "not_attractive"
UNKNOWN = "unknown"

GLUE_RESIDUAL_TOL = 1e-7

# The one margin of the SOS conditions: the scale of the positive-
# definiteness floor (pd_epsilon) and of the decrease margins of the region
# (margin_mu) and cross (margin_nu) conditions, as the certificate's config
# block records them.
MARGIN = 1e-4
# check_attractivity's strict-positivity offset
ATTRACTIVITY_KAPPA = 1e-4


@dataclass
class CertificationConfig:
    lyapunov_degree: int = 6
    use_attractivity_filter: bool = True

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
    attractive_pairs: list = None                      # None = filter off
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
                "use_attractivity_filter": self.config.use_attractivity_filter,
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
        if self.attractive_pairs is not None:
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
    p = Polynomial.zero(n)
    for k in range(n):
        xk = Polynomial.variable(n, k)
        p = p + xk ** 2 + xk ** deg
    return p * MARGIN


def _margin(n: int, deg: int) -> Polynomial:
    q = Polynomial.zero(n)
    for k in range(n):
        q = q + Polynomial.variable(n, k) ** 2
    return (q ** (deg // 2)) * MARGIN


def check_attractivity(sys: SwitchedSystem, pair) -> str:
    """SOS test for whether a boundary can host a sliding mode.

    For each vertex pair (f, g) of the adjacent regions, tests whether
    -<dchi, f><dchi, g> - l*chi - ATTRACTIVITY_KAPPA is SOS for some
    polynomial l.
    Feasibility for any vertex pair means the normal components can have
    opposite signs somewhere on the boundary, so sliding cannot be ruled
    out and cross-Lie conditions must be enforced for the pair.
    """
    i, j = pair
    bnd = sys.boundary(i, j)   # raises KeyError for unknown pairs
    chi = bnd.chi
    any_unknown = False
    for f in sys.dynamics[i].vertices:
        lf = lie_derivative(chi, f)
        for g in sys.dynamics[j].vertices:
            lg = lie_derivative(chi, g)
            target = (lf * lg) * (-1.0) - ATTRACTIVITY_KAPPA
            cons = PositivityConstraint(
                cid="attract", target=LinPoly.from_poly(target),
                equality_generators=[chi])
            sol = solve(assemble([cons]))
            if sol.status == FEASIBLE:
                return ATTRACTIVE
            if sol.status != INFEASIBLE:
                any_unknown = True
    return UNKNOWN if any_unknown else NOT_ATTRACTIVE


def build_feasibility(sys: SwitchedSystem, cfg: CertificationConfig,
                      cross_pairs=None):
    """Assemble the joint feasibility SDP.

    cross_pairs: ordered boundary pairs for which the cross-Lie constraint
    is included; None enforces it for both orders of every boundary.

    Returns (SdpProblem, plan) where plan carries the decision-variable
    LinPoly objects needed to read the solution back.
    """
    n = sys.dimension
    deg = cfg.lyapunov_degree
    box_gens = _box_generators(sys)
    phi = _pd_floor(n, deg)
    margin = _margin(n, deg)

    if cross_pairs is None:
        cross_pairs = []
        for b in sys.boundaries:
            cross_pairs.extend([(b.i, b.j), (b.j, b.i)])

    V = {}
    for rid in sorted(sys.regions):
        basis = monomial_basis(n, deg,
                               include_constant=rid not in sys.origin_regions)
        V[rid] = LinPoly.decision(n, f"V{rid}", basis)

    # lie_derivative(-V, f) is -lie_derivative(V, f) bit for bit
    neg_V = {rid: lp.scale(-1.0) for rid, lp in V.items()}
    constraints = []
    for rid in sorted(sys.regions):
        region = sys.regions[rid]
        eq = [] if region.chi.is_zero() else [region.chi]
        ineq = [g for g in region.xi if not g.is_zero()] + box_gens
        constraints.append(PositivityConstraint(
            cid=f"pd{rid}", target=V[rid] - phi,
            equality_generators=eq, inequality_generators=ineq))
        for l, f in enumerate(sys.dynamics[rid].vertices):
            constraints.append(PositivityConstraint(
                cid=f"lie{rid}v{l}",
                target=lie_derivative(neg_V[rid], f) - margin,
                equality_generators=eq, inequality_generators=ineq))
    for (i, j) in cross_pairs:
        chi_ij = sys.boundary(i, j).chi
        for l, f in enumerate(sys.dynamics[j].vertices):
            constraints.append(PositivityConstraint(
                cid=f"cross{i}_{j}v{l}",
                target=lie_derivative(neg_V[i], f) - margin,
                equality_generators=[chi_ij],
                inequality_generators=list(box_gens)))

    glue = {}
    identities = []
    for b in sys.boundaries:
        pdeg = max(deg - b.chi.degree(), 0)
        glue[(b.i, b.j)] = LinPoly.decision(n, f"p{b.i}_{b.j}",
                                            monomial_basis(n, pdeg))
        identities.append(V[b.i] + glue[(b.i, b.j)].mul_poly(b.chi) - V[b.j])

    problem = assemble(constraints, identities=identities)
    # Minimizing total Gram trace keeps the returned certificate at a sane
    # coefficient scale (the feasible set is unbounded upward).
    problem.c[svec_diagonal([n for _, n in problem.psd_blocks])] = 1.0
    plan = {"V": V, "glue": glue, "constraints": constraints,
            "cross_pairs": list(cross_pairs)}
    return problem, plan


def certify(sys: SwitchedSystem, cfg: CertificationConfig = None,
            oracle_cfg: OracleConfig = None) -> Certificate:
    """Run the full pipeline: pre-filter, SDP, extraction, oracle gate."""
    cfg = cfg or CertificationConfig()
    t0 = time.time()

    validation = sys.validate()
    if validation.has_fail:
        bad = [n for n, s, _ in validation.checks if s == "fail"]
        raise ValueError(f"system validation failed: {bad}")

    cross_pairs = None
    attractive = None
    if cfg.use_attractivity_filter:
        cross_pairs = []
        attractive = []
        for b in sys.boundaries:
            status = check_attractivity(sys, (b.i, b.j))
            if status != NOT_ATTRACTIVE:
                # sliding not ruled out (or test inconclusive): keep the
                # cross conditions for both orderings
                cross_pairs.extend([(b.i, b.j), (b.j, b.i)])
                attractive.append((b.i, b.j))

    problem, plan = build_feasibility(sys, cfg, cross_pairs=cross_pairs)
    sol = solve(problem)

    if sol.status != FEASIBLE:
        if sol.status == INFEASIBLE:
            status = NO_CERTIFICATE
            detail = (f"no certificate at degree {cfg.lyapunov_degree} "
                      f"({sol.solver_status})")
        else:
            status, detail = SUSPECT, f"solver failure: {sol.solver_status}"
        return Certificate(
            status=status, config=cfg, attractive_pairs=attractive,
            system_hash=sys.source_hash, solve_seconds=time.time() - t0,
            detail=detail)

    evidence = certificate_from_solution(problem, sol, sys.dimension)
    lyapunov = {rid: lp.instantiate(sol.scalar_values)
                for rid, lp in plan["V"].items()}
    gluing = {pair: lp.instantiate(sol.scalar_values)
              for pair, lp in plan["glue"].items()}

    cert = Certificate(
        status=SUSPECT, lyapunov=lyapunov, gluing=gluing,
        sos_evidence=evidence, config=cfg,
        attractive_pairs=attractive, system_hash=sys.source_hash,
    )

    glue_ok = True
    for b in sys.boundaries:
        lhs = lyapunov[b.i] + gluing[(b.i, b.j)] * b.chi
        residual = max((abs(d) for d in
                        coefficients_equal(lhs, lyapunov[b.j]).values()),
                       default=0.0)
        cert.glue_residuals[(b.i, b.j)] = residual
        glue_ok &= residual <= GLUE_RESIDUAL_TOL

    oracle_pairs = None
    if cfg.use_attractivity_filter:
        oracle_pairs = set(attractive)
    cert.oracle_report = verify_certificate(sys, lyapunov, oracle_cfg,
                                            attractive_pairs=oracle_pairs)

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
