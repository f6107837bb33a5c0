"""Sampling-based refutation checks for switched Lyapunov certificates.

Everything here is deliberately solver-free: the numbers produced by the
SDP layer are never trusted on their own.  A certificate (whether computed
by this package or supplied externally) is re-checked by dense sampling of
the defining conditions

    positivity      V_i(x) > V(0)                   on X_i \\ {0}
    lie_region      <dV_i/dx, f_il(x)> < 0          on X_i \\ {0}, every vertex l
    lie_boundary    <dV_i/dx, f_jl(x)> < 0          on X_i ∩ X_j \\ {0}
    continuity      V_i(x) = V_j(x)                 on X_i ∩ X_j

The oracle refutes, it does not prove: the verdict vocabulary is
"no-violation-found" / "violated-at(x)".  Strict inequalities are tested
against a scaled tolerance on closed samples minus a small ball around the
origin, since strictness cannot be sampled literally.  Every sample lies
in the system's box, the compact set the certificate is stated on.  V(0)
is the common value V_r(0) of the origin regions r (0.0 if there are
none).  Where they disagree, which the CLI refuses as an input error,
V(0) is the largest, so positivity fails beside the origin in a region
whose own value is lower.

Points travel as columns: an (n, m) array with one contiguous row per
variable, which `Polynomial.eval_columns` evaluates without a copy.  The
grid-plus-random candidates are never held at once: `verify_certificate`
streams them in chunks of at most CHUNK points, masks each region's
survivors in a chunk with `SemiAlgebraicRegion.contains`, gathers them
with `take`, and folds every condition's worst case into a running
record, so its memory does not grow with the grid; `sample_region`
streams the same chunks and keeps only the survivors.  A random chunk is
one rng.random draw scaled in place to lo + (hi - lo) * d, the formula of
numpy's uniform.  Per chunk the norms and the exclusion-ball mask are
taken once, and per region the scale 1 + |x|^d once for each distinct
degree d of its conditions.  Boundary
points come from random segments drawn in rounds with rng.uniform and
bisected in one pass after the last round; the bisection works in place
on all kept segments, a stopped segment frozen rather than removed.  A
value that overflows to inf or turns nan fails its condition, nan
ranking as the worst violation, and raises no floating-point warning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .poly import Polynomial, lie_derivative
from .system import SwitchedSystem, SemiAlgebraicRegion, BoundaryVariety

# Candidate points per chunk of verify_certificate's streaming pass
CHUNK = 2 ** 14
# Sampling sizes, read at call time
GRID_PER_DIM = 101          # grid points per axis of the system box
RANDOM_SAMPLES = 100_000    # uniform draws after the grid
EXCLUSION_RADIUS = 1e-3     # the ball around the origin left out
BOUNDARY_SAMPLES = 1000     # points sought on each boundary variety


@dataclass
class OracleConfig:
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ValueError("OracleConfig.tolerance must be positive and finite")


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
                    key=lambda r: _rank(r.worst_violation))
        return f"violated-at{worst.worst_point}"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "passed": self.passed,
            "seed": self.config.seed if self.config else None,
            "tolerance": self.config.tolerance if self.config else None,
            "warnings": list(self.warnings),
            "conditions": [asdict(r) for r in self.records],
        }


# -- samplers ---------------------------------------------------------------

def _candidate_chunks(box, rng):
    """Grid plus uniform random points covering the box, as contiguous
    columns (n, <= CHUNK): the grid in meshgrid "ij" order, then
    RANDOM_SAMPLES uniform draws.

    Grid points come from their flat index, one base-GRID_PER_DIM digit per
    axis.  The random chunks are consecutive (k, n) draws, which give the
    values of one (RANDOM_SAMPLES, n) draw and leave the generator in its
    state.  Each is rng.random((k, n)) turned into columns and scaled in
    place, lo + (hi - lo) * d: the formula of numpy's random_uniform,
    lower + range * next_double, behind rng.uniform(lo, hi, size=(k, n)),
    on the same doubles.  Rounded twice here on any build, it gives that
    call's values wherever numpy does not fuse the line into a
    multiply-add, as on the builds the tests run on.
    """
    lo, hi = box
    n = len(lo)
    g, samples = GRID_PER_DIM, RANDOM_SAMPLES
    axes = [np.linspace(lo[k], hi[k], g) for k in range(n)]
    total = g ** n
    for start in range(0, total, CHUNK):
        rest = np.arange(start, min(start + CHUNK, total))
        cols = np.empty((n, rest.size))
        for k in reversed(range(n)):
            rest, digit = np.divmod(rest, g)
            axes[k].take(digit, out=cols[k])
        yield cols
    span, lo = (hi - lo)[:, None], lo[:, None]
    for start in range(0, samples, CHUNK):
        k = min(CHUNK, samples - start)
        cols = np.ascontiguousarray(rng.random((k, n)).T)
        cols *= span
        cols += lo
        yield cols


def _pairwise_sum(terms):
    """Sum of equal-shape arrays in numpy's pairwise order: a sequential
    sum below 8 terms, eight partial sums up to 128, a halving split above."""
    n = len(terms)
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total
    if n <= 128:
        stop = n - n % 8
        r = terms[:8]
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, terms[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[stop:]:
            total = total + t
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _norms(cols) -> np.ndarray:
    """Euclidean norm of each point of cols (n, m), bit for bit
    np.linalg.norm(rows, axis=1) on the C-contiguous rows (m, n), which
    sums each row's squares pairwise; a plain column sum would add them
    sequentially and round differently for n >= 8."""
    return np.sqrt(_pairwise_sum([c * c for c in cols]))


def sample_region(sys: SwitchedSystem, region: SemiAlgebraicRegion,
                  cfg: OracleConfig, rng=None):
    """Candidate points restricted to one semi-algebraic region.

    Returns (points, warnings), the points as C-contiguous rows (m, n).
    Membership is tested with the oracle tolerance (|chi| <= tol,
    xi >= -tol) and the exclusion ball around the origin is removed.  The
    candidates stream in chunks, as in verify_certificate (whose candidates
    rng=None draws), and only each chunk's survivors are kept.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    kept = []
    for chunk in _candidate_chunks(sys.box, rng):
        keep = _region_keep(region, chunk, _norms(chunk) >= EXCLUSION_RADIUS, cfg)
        kept.append(chunk[:, keep].T)
    pts = np.concatenate(kept)          # C-contiguous
    return pts, _survivor_warnings(region, pts.shape[0])


def _region_keep(region: SemiAlgebraicRegion, cols, outside, cfg: OracleConfig):
    """Mask of the points of cols (n, m) that sample_region keeps, given
    outside, the mask of those outside the exclusion ball."""
    return outside & region.contains(cols, cfg.tolerance)


def _survivor_warnings(region: SemiAlgebraicRegion, count: int) -> list:
    if count == 0:
        return [f"region {region.rid}: zero sample survivors"]
    if count < 100:
        return [f"region {region.rid}: only {count} sample survivors"]
    return []


def sample_boundary(sys: SwitchedSystem, boundary: BoundaryVariety,
                    cfg: OracleConfig, rng=None):
    """Points on {chi_ij = 0} found by bisection along random segments.

    Segment endpoints are redrawn until chi changes sign across them; after
    50 failed draws per requested point a warning is emitted and sampling
    stops early.

    Segments are drawn in rounds and bisected in one pass after the last
    round.  A round draws k = min(points still needed, misses still
    allowed) segments in one (k, 2, n) call, the same stream as drawing
    each segment's a then b, keeps those whose a is an exact zero or whose
    ends straddle a sign change, and no round can overshoot either limit.
    Whether a segment is kept depends only on chi at its ends, so the rounds
    never wait on a bisection, and bisecting every kept segment at once, on
    one column per variable, gives the points and the generator's final
    state of drawing and bisecting one segment at a time.  Returns rows
    (points, n) and the warnings.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    lo, hi = sys.box
    n = len(lo)
    chi = boundary.chi.eval_columns

    need = BOUNDARY_SAMPLES
    allowed = 50 * need
    kept, kept_signs = [], []
    warns = []
    npts = misses = 0
    while npts < need and misses < allowed:
        seg = rng.uniform(lo, hi, size=(min(need - npts, allowed - misses), 2, n))
        ends = np.ascontiguousarray(seg.transpose(1, 2, 0))   # (2, n, k): a, b
        fa = chi(ends[0])
        sa = np.sign(fa)
        keep = (fa == 0.0) | (sa != np.sign(chi(ends[1])))
        kept.append(ends[:, :, keep])
        kept_signs.append(sa[keep])
        hits = int(keep.sum())
        npts += hits
        misses += keep.size - hits
    if npts < need:
        warns.append(
            f"boundary ({boundary.i},{boundary.j}): no sign straddle "
            f"after {misses} segment draws; {npts} points found")

    ends = np.concatenate(kept, axis=2)
    out = ends[0]                       # an exact zero a is its own point
    sa = np.concatenate(kept_signs)
    idx = np.flatnonzero(sa != 0.0)
    # a only ever takes a midpoint of its own sign, so sign(fa) is fixed.
    # A segment stops where |chi(m)| <= 1e-12 and is then frozen: its a
    # and b no longer move, so its midpoint, and so its stop, repeat.
    a, b, sa = ends[0][:, idx], ends[1][:, idx], sa[idx]
    m = np.empty_like(a)
    for _ in range(200):
        np.add(a, b, out=m)
        m *= 0.5
        fm = chi(m)
        go = ~(np.abs(fm) <= 1e-12)     # nan goes on
        if not go.any():
            break
        # sa is +-1 (or nan, never same), so this is sign(fm) == sa
        same = fm * sa > 0.0
        np.copyto(a, m, where=go & same)
        np.copyto(b, m, where=go & ~same)
    np.add(a, b, out=m)
    m *= 0.5
    out[:, idx] = m

    pts = np.ascontiguousarray(out[:, _norms(out) >= EXCLUSION_RADIUS].T)
    if pts.shape[0] == 0 and not warns:
        warns.append(f"boundary ({boundary.i},{boundary.j}): no boundary witness found")
    return pts, warns


# -- condition evaluation ----------------------------------------------------

def _scale(norms: np.ndarray, deg: int) -> np.ndarray:
    return 1.0 + norms ** max(deg, 1)


def _rank(value: float):
    """Sort key that ranks nan above every number."""
    return (value != value, value)


def _worst(values: np.ndarray, pts: np.ndarray):
    """(largest value, its point); np.argmax ranks nan above every number,
    as _rank does.  pts is indexed by point (rows, or cols.T)."""
    if values.size == 0:
        return 0.0, ()
    k = int(np.argmax(values))
    return float(values[k]), tuple(float(c) for c in pts[k])


class _Worst:
    """One condition's worst case folded over chunks of its samples, as
    np.argmax takes it over their concatenation: the first largest value
    wins, and nan ranks above every number, the first nan winning."""

    def __init__(self, condition: str, subject: str):
        self.condition, self.subject = condition, subject
        self.samples, self.value, self.point = 0, None, ()

    def fold(self, values: np.ndarray, cols):
        """Fold in the values at the points cols (n, m)."""
        self.samples += values.size
        if values.size == 0 or self.value != self.value:   # a nan stays
            return
        v, at = _worst(values, cols.T)
        if self.value is None or v != v or v > self.value:
            self.value, self.point = v, at

    def record(self, tolerance: float) -> ConditionRecord:
        w = 0.0 if self.value is None else self.value
        return ConditionRecord(self.condition, self.subject, self.samples,
                               w, self.point, w <= tolerance)


def _record(report: OracleReport, condition: str, subject: str, viol, cols):
    """Append the worst case of one condition sampled at cols (n, m)."""
    worst = _Worst(condition, subject)
    worst.fold(viol, cols)
    report.records.append(worst.record(report.config.tolerance))


def origin_values(sys: SwitchedSystem, lyapunov: dict) -> dict:
    """Origin region id -> V_r(0), in id order."""
    zero = (0,) * sys.dimension
    return {rid: lyapunov[rid].coefficient(zero)
            for rid in sorted(sys.origin_regions)}


def verify_certificate(sys: SwitchedSystem, lyapunov: dict,
                       cfg: OracleConfig = None,
                       attractive_pairs=None) -> OracleReport:
    """Refutation-check a Lyapunov family against every sampled condition.

    lyapunov: mapping region id -> Polynomial.
    attractive_pairs: if given, lie_boundary is only checked for ordered
    pairs in this collection (the attractivity pre-filter's output); None
    checks every boundary pair in both orders.

    The region conditions are checked in one pass over the candidate
    chunks, each region's survivors gathered per chunk, and give the
    records and warnings of checking every candidate at once.  inf and nan
    values make a condition fail (nan ranks worst) without a
    RuntimeWarning.  Positivity tests V_i - V(0), V(0) the largest of
    origin_values (0.0 without origin regions).
    """
    cfg = cfg or OracleConfig()
    rng = np.random.default_rng(cfg.seed)
    report = OracleReport(config=cfg)
    missing = [rid for rid in sys.regions if rid not in lyapunov]
    if missing:
        raise ValueError(f"no Lyapunov polynomial for regions {missing}")

    v0 = max(origin_values(sys, lyapunov).values(), default=0.0)
    # per region: its distinct degrees, positivity's (V, degree, worst
    # case), then one (Lie derivative, degree, worst case) per vertex
    checks = []
    for rid, region in sorted(sys.regions.items()):
        V = lyapunov[rid]
        positivity = (V, V.degree(), _Worst("positivity", f"region {rid}"))
        lies = [(lie, lie.degree(), _Worst("lie_region", f"region {rid}, vertex {l}"))
                for l, lie in enumerate(lie_derivative(V, f)
                                        for f in sys.dynamics[rid].vertices)]
        degrees = {deg for _, deg, _ in [positivity, *lies]}
        checks.append((region, degrees, positivity, lies))

    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _candidate_chunks(sys.box, rng):
            chunk_norms = _norms(chunk)
            outside = chunk_norms >= EXCLUSION_RADIUS
            for region, degrees, (V, deg, worst), lies in checks:
                idx = np.flatnonzero(_region_keep(region, chunk, outside, cfg))
                cols, norms = chunk.take(idx, axis=1), chunk_norms.take(idx)
                scale = {d: _scale(norms, d) for d in degrees}
                # positivity: V - V(0) must dominate a tolerance-sized
                # quadratic
                worst.fold((cfg.tolerance * norms ** 2
                            - (V.eval_columns(cols) - v0)) / scale[deg], cols)
                for lie, deg, worst in lies:
                    worst.fold(lie.eval_columns(cols) / scale[deg], cols)
        for region, _, (_, _, positivity), lies in checks:
            report.warnings.extend(_survivor_warnings(region, positivity.samples))
            report.records.append(positivity.record(cfg.tolerance))
            report.records.extend(worst.record(cfg.tolerance) for *_, worst in lies)

        for bnd in sys.boundaries:
            pts, warns = sample_boundary(sys, bnd, cfg, rng)
            report.warnings.extend(warns)
            if pts.shape[0] == 0:
                continue
            cols = np.ascontiguousarray(pts.T)
            norms = _norms(cols)
            Vi, Vj = lyapunov[bnd.i], lyapunov[bnd.j]
            deg = max(Vi.degree(), Vj.degree())
            viol = np.abs(Vi.eval_columns(cols) - Vj.eval_columns(cols)) \
                / _scale(norms, deg)
            _record(report, "continuity", f"boundary ({bnd.i},{bnd.j})",
                    viol, cols)

            for (i, j) in ((bnd.i, bnd.j), (bnd.j, bnd.i)):
                if attractive_pairs is not None and (i, j) not in attractive_pairs \
                        and (j, i) not in attractive_pairs:
                    continue
                V = lyapunov[i]
                for l, f in enumerate(sys.dynamics[j].vertices):
                    lie = lie_derivative(V, f)
                    viol = lie.eval_columns(cols) / _scale(norms, lie.degree())
                    _record(report, "lie_boundary", f"boundary ({i},{j}), vertex {l}",
                            viol, cols)

    return report


def vertex_convexity_check(sys: SwitchedSystem, lyapunov: dict,
                           n_pairs: int = 1000, seed: int = 0) -> float:
    """Max defect of <dV, sum_l theta_l f_l> = sum_l theta_l <dV, f_l>.

    Sanity check of the convexity argument that lets the certifier test
    only simplex vertices; exact up to rounding, so the returned defect
    should sit at the 1e-10 level or below.  Only acceptance criterion 9
    calls it; it stays public so that the vertex-only argument certify
    rests on can be re-checked for any system and family.
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
