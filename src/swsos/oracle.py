"""Sampling-based refutation checks for switched Lyapunov certificates.

Everything here is deliberately solver-free: the numbers produced by the
SDP layer are never trusted on their own.  A certificate (whether computed
by this package or supplied externally) is re-checked by dense sampling of
the defining conditions

    positivity      V_i(x) > 0                      on X_i \\ {0}
    lie_region      <dV_i/dx, f_il(x)> < 0          on X_i \\ {0}, every vertex l
    lie_boundary    <dV_i/dx, f_jl(x)> < 0          on X_i ∩ X_j \\ {0}
    continuity      V_i(x) = V_j(x)                 on X_i ∩ X_j

The oracle refutes, it does not prove: the verdict vocabulary is
"no-violation-found" / "violated-at(x)".  Strict inequalities are tested
against a scaled tolerance on closed samples minus a small ball around the
origin, since strictness cannot be sampled literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, lie_derivative
from .system import SwitchedSystem, SemiAlgebraicRegion, BoundaryVariety


@dataclass
class OracleConfig:
    grid_per_dim: int = 101
    random_samples: int = 100_000
    exclusion_radius: float = 1e-3
    tolerance: float = 1e-6
    seed: int = 0
    boundary_samples: int = 1000
    box: tuple = None         # (lo, hi) override; None = sample the system box

    def __post_init__(self):
        for name in ("grid_per_dim", "random_samples", "exclusion_radius",
                     "tolerance", "boundary_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"OracleConfig.{name} must be positive")


@dataclass
class ConditionRecord:
    """Outcome of one sampled condition (worst case over all samples)."""

    condition: str            # positivity | lie_region | lie_boundary | continuity
    subject: str              # e.g. "region 1, vertex 2" or "boundary (1,2)"
    samples: int
    worst_violation: float    # scaled; > tolerance means refuted
    worst_point: tuple
    passed: bool

    def summary(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (f"[{tag}] {self.condition:12s} {self.subject}: "
                f"worst {self.worst_violation:+.3e} at {self.worst_point} "
                f"({self.samples} samples)")


@dataclass
class OracleReport:
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    config: OracleConfig = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def verdict(self) -> str:
        if self.passed:
            return "no-violation-found"
        worst = max((r for r in self.records if not r.passed),
                    key=lambda r: r.worst_violation)
        return f"violated-at{worst.worst_point}"

    def worst(self) -> float:
        return max((r.worst_violation for r in self.records), default=0.0)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "passed": self.passed,
            "seed": self.config.seed if self.config else None,
            "tolerance": self.config.tolerance if self.config else None,
            "warnings": list(self.warnings),
            "conditions": [
                {
                    "condition": r.condition,
                    "subject": r.subject,
                    "samples": r.samples,
                    "worst_violation": r.worst_violation,
                    "worst_point": list(r.worst_point),
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


# -- samplers ---------------------------------------------------------------

def _sampling_box(sys: SwitchedSystem, cfg: OracleConfig):
    return cfg.box if cfg.box is not None else sys.box


def _candidate_points(box, cfg: OracleConfig, rng) -> np.ndarray:
    """Grid plus uniform random points covering the box."""
    lo, hi = box
    n = len(lo)
    axes = [np.linspace(lo[k], hi[k], cfg.grid_per_dim) for k in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    rand = rng.uniform(lo, hi, size=(cfg.random_samples, n))
    return np.vstack([grid, rand])


def sample_region(sys: SwitchedSystem, region: SemiAlgebraicRegion,
                  cfg: OracleConfig, rng=None, points=None):
    """Candidate points restricted to one semi-algebraic region.

    Returns (points, warnings).  Membership is tested with the oracle
    tolerance (|chi| <= tol, xi >= -tol) and the exclusion ball around the
    origin is removed.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    pts = (points if points is not None
           else _candidate_points(_sampling_box(sys, cfg), cfg, rng))
    keep = np.linalg.norm(pts, axis=1) >= cfg.exclusion_radius
    keep &= region.contains_many(pts, cfg.tolerance)
    out = pts[keep]
    warns = []
    if out.shape[0] == 0:
        warns.append(f"region {region.rid}: zero sample survivors")
    elif out.shape[0] < 100:
        warns.append(f"region {region.rid}: only {out.shape[0]} sample survivors")
    return out, warns


def sample_boundary(sys: SwitchedSystem, boundary: BoundaryVariety,
                    cfg: OracleConfig, rng=None):
    """Points on {chi_ij = 0} found by bisection along random segments.

    Segment endpoints are redrawn until chi changes sign across them; after
    50 failed draws per requested point a warning is emitted and sampling
    stops early.

    Segments are drawn and bisected in rounds, all of a round's segments at
    once.  A round draws k = min(points still needed, misses still allowed)
    segments in one (k, 2, n) call, the same stream as drawing each
    segment's a then b, and no round can overshoot either limit, so the
    points and the generator's final state are those of drawing and
    bisecting one segment at a time.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    lo, hi = _sampling_box(sys, cfg)
    n = len(lo)
    chi = boundary.chi.eval_many

    need = cfg.boundary_samples
    allowed = 50 * cfg.boundary_samples
    found = []
    warns = []
    npts = misses = 0
    while npts < need and misses < allowed:
        seg = rng.uniform(lo, hi, size=(min(need - npts, allowed - misses), 2, n))
        out = seg[:, 0].copy()
        fa, fb = chi(out), chi(seg[:, 1])
        zero = fa == 0.0
        miss = ~zero & (np.sign(fa) == np.sign(fb))
        idx = np.flatnonzero(~zero & ~miss)
        a, b = out[idx], seg[idx, 1]
        # a only ever takes a midpoint of its own sign, so sign(fa) is fixed
        sa = np.sign(fa[idx])
        for _ in range(200):
            if idx.size == 0:
                break
            m = 0.5 * (a + b)
            fm = chi(m)
            stop = np.abs(fm) <= 1e-12
            if stop.any():
                out[idx[stop]] = m[stop]
                go = ~stop
                a, b, m, fm, sa, idx = a[go], b[go], m[go], fm[go], sa[go], idx[go]
            same = (np.sign(fm) == sa)[:, None]
            a = np.where(same, m, a)
            b = np.where(same, b, m)
        out[idx] = 0.5 * (a + b)
        out = out[~miss]
        found.append(out)
        npts += out.shape[0]
        misses += int(miss.sum())
    if npts < need:
        warns.append(
            f"boundary ({boundary.i},{boundary.j}): no sign straddle "
            f"after {misses} segment draws; {npts} points found")
    pts = np.concatenate(found)
    if pts.shape[0]:
        pts = pts[np.linalg.norm(pts, axis=1) >= cfg.exclusion_radius]
    if pts.shape[0] == 0 and not warns:
        warns.append(f"boundary ({boundary.i},{boundary.j}): no boundary witness found")
    return pts, warns


# -- condition evaluation ----------------------------------------------------

def _scale(norms: np.ndarray, deg: int) -> np.ndarray:
    return 1.0 + norms ** max(deg, 1)


def _worst(values: np.ndarray, pts: np.ndarray):
    if values.size == 0:
        return 0.0, ()
    k = int(np.argmax(values))
    return float(values[k]), tuple(float(c) for c in pts[k])


def verify_certificate(sys: SwitchedSystem, lyapunov: dict,
                       cfg: OracleConfig = None,
                       attractive_pairs=None) -> OracleReport:
    """Refutation-check a Lyapunov family against every sampled condition.

    lyapunov: mapping region id -> Polynomial.
    attractive_pairs: if given, lie_boundary is only checked for ordered
    pairs in this collection (the attractivity pre-filter's output); None
    checks every boundary pair in both orders.
    """
    cfg = cfg or OracleConfig()
    rng = np.random.default_rng(cfg.seed)
    report = OracleReport(config=cfg)
    missing = [rid for rid in sys.regions if rid not in lyapunov]
    if missing:
        raise ValueError(f"no Lyapunov polynomial for regions {missing}")

    shared = _candidate_points(_sampling_box(sys, cfg), cfg, rng)

    region_pts = {}
    for rid, region in sorted(sys.regions.items()):
        pts, warns = sample_region(sys, region, cfg, rng, points=shared)
        region_pts[region.rid] = pts
        report.warnings.extend(warns)

        V = lyapunov[region.rid]
        norms = np.linalg.norm(pts, axis=1)
        sc = _scale(norms, V.degree())
        # positivity: V must dominate a tolerance-sized quadratic
        viol = (cfg.tolerance * norms ** 2 - V.eval_many(pts)) / sc
        w, at = _worst(viol, pts)
        report.records.append(ConditionRecord(
            "positivity", f"region {region.rid}", pts.shape[0], w, at,
            w <= cfg.tolerance))

        for l, f in enumerate(sys.dynamics[region.rid].vertices):
            lie = lie_derivative(V, f)
            viol = lie.eval_many(pts) / _scale(norms, lie.degree())
            w, at = _worst(viol, pts)
            report.records.append(ConditionRecord(
                "lie_region", f"region {region.rid}, vertex {l}",
                pts.shape[0], w, at, w <= cfg.tolerance))

    for bnd in sys.boundaries:
        pts, warns = sample_boundary(sys, bnd, cfg, rng)
        report.warnings.extend(warns)
        if pts.shape[0] == 0:
            continue
        norms = np.linalg.norm(pts, axis=1)
        Vi, Vj = lyapunov[bnd.i], lyapunov[bnd.j]
        deg = max(Vi.degree(), Vj.degree())
        viol = np.abs(Vi.eval_many(pts) - Vj.eval_many(pts)) / _scale(norms, deg)
        w, at = _worst(viol, pts)
        report.records.append(ConditionRecord(
            "continuity", f"boundary ({bnd.i},{bnd.j})", pts.shape[0], w, at,
            w <= cfg.tolerance))

        for (i, j) in ((bnd.i, bnd.j), (bnd.j, bnd.i)):
            if attractive_pairs is not None and (i, j) not in attractive_pairs \
                    and (j, i) not in attractive_pairs:
                continue
            V = lyapunov[i]
            for l, f in enumerate(sys.dynamics[j].vertices):
                lie = lie_derivative(V, f)
                viol = lie.eval_many(pts) / _scale(norms, lie.degree())
                w, at = _worst(viol, pts)
                report.records.append(ConditionRecord(
                    "lie_boundary", f"boundary ({i},{j}), vertex {l}",
                    pts.shape[0], w, at, w <= cfg.tolerance))

    return report


def vertex_convexity_check(sys: SwitchedSystem, lyapunov: dict,
                           n_pairs: int = 1000, seed: int = 0) -> float:
    """Max defect of <dV, sum_l theta_l f_l> = sum_l theta_l <dV, f_l>.

    Sanity check of the convexity argument that lets the certifier test
    only simplex vertices; exact up to rounding, so the returned defect
    should sit at the 1e-10 level or below.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    lo, hi = sys.box
    for rid, region in sorted(sys.regions.items()):
        verts = sys.dynamics[rid].vertices
        V = lyapunov[rid]
        lies = [lie_derivative(V, f) for f in verts]
        pts = rng.uniform(lo, hi, size=(n_pairs, sys.dimension))
        thetas = rng.dirichlet(np.ones(len(verts)), size=n_pairs)
        vertex_vals = np.column_stack([lp.eval_many(pts) for lp in lies])
        combo = (thetas * vertex_vals).sum(axis=1)
        direct = np.zeros(n_pairs)
        for k in range(n_pairs):
            f_theta = sys.field_at(rid, thetas[k])
            direct[k] = lie_derivative(V, f_theta)(pts[k])
        worst = max(worst, float(np.abs(direct - combo).max()))
    return worst
