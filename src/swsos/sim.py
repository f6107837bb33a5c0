"""Filippov trajectory integration on semi-algebraic partitions.

Fixed-step RK4 inside a region, bisection event localization on the cubic
dense interpolant when a boundary variety changes sign, and first-order
sliding dynamics from the convexified inclusion when the adjacent normal
components point at each other.  Codimension >= 2 strata stop the run
(stratum_stop) instead of guessing a selection from the convex hull.

One rule decides every event: a step from x_prev to x_next in region i
crosses a boundary (i, j) iff chi(x_prev) * chi(x_next) < 0, or
chi(x_next) == 0 != chi(x_prev).  The smooth kernel flags such a step and
detect_crossing localizes it on the same floats, leaving the state past
the boundary or on it.  Only region i's boundaries are watched: a variety
is a global zero set, and another pair's can pass through region i.  Each
variety is watched once: two boundaries of region i on one chi change
sign together, and that is one crossing, named for the boundary whose
other region holds the crossing point.  A smooth segment that starts
within the sliding band of a boundary (after an event, or a sliding
exit) gives that boundary no side until its first step leaves the band,
so the step off a boundary is not a crossing.

Both inner loops run in RK4 segment kernels that _kernels generates from
the term lists each field and boundary polynomial caches: rk4_smooth_run
inside a region, rk4_sliding_run along a boundary variety.  They are the
one RK4 integrator; there is no per-step Python path.  _kernels compiles
a kernel once per field shape and binds each field's coefficients to it,
so the theta runs of one process, whose interior values give a region
one shape, share a compile (the CLI runs a sweep's values on one worker
process per usable CPU, so kernels are shared within a worker, not across
a whole sweep); simulate builds each region's and boundary's kernel once
per run, on first use.  Event handling, the choice between
crossing and sliding and the switched Lyapunov value (one batch
evaluation per non-empty segment) live here.  A region missing from
SimConfig.theta runs at its first vertex, field_at's default; a theta
key that names no region, or weights that field_at refuses, raise
ValueError before the run starts.

Each pass of simulate's loop handles one visit: the ball test, the
region, and on a boundary the choice, then the smooth kernel.  When both
regions of a boundary hold the state but chi_ij is off the sliding band,
the pass takes one Newton step onto chi_ij = 0, as the sliding kernel
does, or stops the run (stratum_stop) if that does not reach the band.
It then evaluates the normal and both fields once: a zero normal stops
the run.  The boundary slides only if it attracts: with region i on the
+n side (it contains, at tolerance 0, the transversal probe's point a
short step along +n), n.F_i <= 0 <= n.F_j, or the mirror inequalities with i on the -n
side.  Then an alpha in [0, 1] runs the sliding kernel; in every other
case, repelling boundaries included, the transversal probe picks a side.
A sliding run that ends with tangency before it accepts a row leaves by
the transversal rule, since sliding again from the same point would end
the same way.  A sliding run stays on its piece of boundary: the sliding
kernel of (i, j) also watches the varieties of the other boundaries of
regions i and j, each once and never chi_ij's own (a boundary on it, or
on -chi_ij, continues the piece), by the smooth kernel's rule, and a
step across one ends the run at the step's start with a stratum_stop
naming (i, j) and the first boundary on that variety.  Between
segments the state is a list of floats, and every event step (the ball
test, region location, the sliding weight, the transversal probe and
crossing localisation) evaluates the term lists with _kernels.eval_terms
on it.
No point or event lies past t_end: both kernels keep _kernels' one time
grid, and simulate ends within _kernels.T_END_SLACK of t_end as they do.

A Trajectory stores what the kernels return, one chunk per segment (a
crossing, a stop and the t_end point are one-row segments): the times,
the states as one (m, n) array, the mode, and the alpha and psi columns
when present.  write_trajectory writes each x_k, alpha or psi column
that prints one text on every row of a chunk (a relay's alpha, the
coordinate normal to a straight boundary, a sliding equilibrium) into
the chunk's row template as that text; it interleaves the time column
and the other columns into one row-major list and formats the chunk with
one %.  The per-point TrajectoryPoint view is built only when something
reads `points`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from sys import intern

import numpy as np

from . import _kernels
from .system import SwitchedSystem

EVENT_TOL = 1e-9             # |chi| at which an event is localized
SLIDING_BAND = 10.0          # sliding keeps |chi| <= SLIDING_BAND * EVENT_TOL
BALL_STOP = 1e-4             # |x| at which a run has converged


@dataclass
class SimConfig:
    step: float = 1e-3
    t_end: float = 50.0
    theta: dict = None           # rid -> simplex weights; None = first vertex

    def __post_init__(self):
        if not all(v > 0 and np.isfinite(v) for v in (self.step, self.t_end)):
            raise ValueError("step and t_end must both be finite and > 0")


@dataclass
class TrajectoryPoint:
    t: float
    x: np.ndarray
    mode: str                    # "smooth:<rid>" | "sliding:<i>,<j>" | "stopped:<why>"
    alpha: float = None          # sliding weight, when sliding
    psi: float = None            # switched Lyapunov value, when loaded


class Trajectory:
    """A run's accepted points, stored as the kernels produce them.

    chunks: one (times, states (m, n) array, mode, alphas | None,
    psi | None) per kernel segment or single point, in time order; None
    stands for a column that is missing on every row.  count: the number of
    points.  events: (t, kind, detail).
    """

    def __init__(self):
        self.chunks = []
        self.count = 0
        self.events = []
        self._points = None

    def add(self, times, states, mode, alphas=None, psi=None):
        """Append one chunk; a zero-length one adds nothing."""
        if len(times):
            self.chunks.append((times, states, mode, alphas, psi))
            self.count += len(times)
            self._points = None

    @property
    def points(self) -> tuple:
        """Every point as a TrajectoryPoint, built on first access."""
        if self._points is None:
            self._points = tuple(
                p for times, states, mode, alphas, psi in self.chunks
                for p in map(TrajectoryPoint, times, states, repeat(mode),
                             alphas or repeat(None), psi or repeat(None)))
        return self._points

    @property
    def final_state(self) -> np.ndarray:
        return self.chunks[-1][1][-1]

    def event_kinds(self):
        return [kind for _, kind, _ in self.events]


# -- elementary operations ----------------------------------------------------

def _terms(vec) -> tuple:
    """The term list of each component of a PolyVector."""
    return tuple(p._term_list() for p in vec)


def _values(terms, x) -> list:
    """Each term list of `terms` evaluated at the list of floats x."""
    return [_kernels.eval_terms(t, x) for t in terms]


def _varieties(sys: SwitchedSystem, rids) -> dict:
    """Each variety of the boundaries of regions rids -> the boundaries on
    it, in declared order.  A variety is keyed by the chi term list of the
    first boundary declared on it; a later one joins it when its term list
    is that list or its exact negation (every coefficient negated), as
    every watch tests only for a sign change."""
    out = {}
    for b in sys.boundaries:
        if set(b.pair) & set(rids):
            chi = b.chi._term_list()
            out.setdefault(_key_of(out, chi), []).append(b)
    return out


def _key_of(varieties, chi) -> tuple:
    """The key of varieties that is chi or its negation, else chi."""
    negated = tuple((-c, k) for c, k in chi)
    return negated if negated in varieties else chi


def _dot(u, v) -> float:
    """Sum of u[k] * v[k] in k order, from 0.0."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def norm(x) -> float:
    """|x|: the squares summed in index order from 0.0, the arithmetic of
    the ball test in the RK4 kernels and of the oracle's sampled norms."""
    return math.sqrt(_dot(x, x))


def _sign(v):
    """np.sign of a float: -1, 0 or 1, and nan for nan."""
    return (v > 0.0) - (v < 0.0) if v == v else v


def detect_crossing(sys: SwitchedSystem, x_prev, x_next, field, h: float, rid):
    """Earliest boundary event across a step of h under field, or None.

    rid: the region the step runs in; only its boundaries (rid, .) are
    watched, the ones its smooth kernel watches.  A variety is a global
    zero set, so another pair's variety can pass through the region (two
    pairs of a four-cone partition share x2 = 0).  Boundaries of rid on
    one chi polynomial are one variety and change sign together: their
    crossing names the one whose other region holds x_cross within the
    sliding band, else the first declared.

    A boundary has an event on the step when chi(x_prev) * chi(x_next) < 0,
    or chi(x_next) == 0 != chi(x_prev): the smooth kernel's rule, on the
    same floats.  Returns (boundary, s, x_cross) with s the step fraction,
    localized by bisection on the dense cubic (Hermite) interpolant of the
    step.  The bracket end hi stays on the far side of chi; the bisection
    stops once |chi(interp(hi))| <= EVENT_TOL and returns s = hi, so
    x_cross is past the boundary or on it.  It runs in plain floats on the
    term lists, with numpy's elementwise operations in the same order, so
    its values are those of the 2-vector form bit for bit.  Raises
    StratumStop when two distinct varieties change sign at an unseparable
    fraction (codimension >= 2).
    """
    x0, x1 = [float(v) for v in x_prev], [float(v) for v in x_next]
    if not all(map(math.isfinite, x0 + x1)):
        raise ValueError("states must be finite")
    terms = _terms(field)
    f0, f1 = _values(terms, x0), _values(terms, x1)
    # the cubic through (x0, f0) and (x1, f1) over a step of h
    cubic = [(2 * (u - v) + h * (fu + fv), -3 * (u - v) - h * (2 * fu + fv),
              h * fu, u) for u, v, fu, fv in zip(x0, x1, f0, f1)]
    interp = lambda s: [((k3 * s + k2) * s + k1) * s + k0
                        for k3, k2, k1, k0 in cubic]

    hits = []
    for chi, named in _varieties(sys, (rid,)).items():
        c0, c1 = _kernels.eval_terms(chi, x0), _kernels.eval_terms(chi, x1)
        if c0 * c1 < 0.0 or c1 == 0.0 != c0:
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = _kernels.eval_terms(chi, interp(mid))
                # a nan on either side compares unequal: hi = mid
                if _sign(fm) == _sign(c0):
                    lo = mid
                else:
                    hi = mid
                    if abs(fm) <= EVENT_TOL:
                        break
            hits.append((hi, named))
    if not hits:
        return None
    hits.sort(key=lambda t: t[0])
    if len(hits) > 1 and hits[1][0] - hits[0][0] <= EVENT_TOL:
        raise StratumStop(
            f"boundaries {[h[1][0].pair for h in hits[:2]]} cross within "
            f"event_tol of the same time")
    s, named = hits[0]
    xc = interp(s)
    # a variety that bounds rid against several regions: the crossing
    # names the boundary into the one that holds xc, else the first named
    b = next((b for b in named if sys.regions[b.j if b.i == rid else b.i]
              .contains(xc, SLIDING_BAND * EVENT_TOL)), named[0])
    return b, s, np.array(xc)


class StratumStop(RuntimeError):
    """Trajectory reached a codimension >= 2 stratum; no selection rule."""


class Tangency(RuntimeError):
    """Both fields are tangent to the boundary; sliding weight undefined."""


def sliding_weight(sys: SwitchedSystem, pair, x) -> float:
    """Filippov convex weight alpha with F_s = alpha*F_i + (1-alpha)*F_j.

    alpha = <n, F_j> / <n, F_j - F_i> with n the boundary normal at x and
    each region's field at its first vertex; the resulting F_s is tangent
    to {chi_ij = 0}.  A denominator under 1e-12 is a tangency; a vanishing
    normal is a singular boundary point.  simulate does not call it (it
    slides by _kernels.sliding_field at its theta); it stays because the
    benchmark's tracer wraps it by name, until that tracer is replaced.
    """
    i, j = pair
    b = sys.boundary(i, j)
    x = [float(v) for v in x]
    if len(x) != sys.dimension:
        raise ValueError(f"point has {len(x)} coordinates, expected {sys.dimension}")
    if abs(_kernels.eval_terms(b.chi._term_list(), x)) > SLIDING_BAND * EVENT_TOL:
        raise ValueError(f"point is not on boundary ({i},{j})")
    n = _values(_terms(b.chi.gradient()), x)
    if _dot(n, n) == 0.0:
        raise StratumStop(f"singular boundary point of ({i},{j}): zero normal")
    slide = _kernels.sliding_field(n, _values(_terms(sys.field_at(i)), x),
                                   _values(_terms(sys.field_at(j)), x))
    if slide is None:
        raise Tangency(f"fields tangent to boundary ({i},{j})")
    return slide[1]


# the stop event of each kernel exit code that ends the run
_STOP_EVENT = {_kernels.STOP_CONVERGED: "converged",
               _kernels.STOP_ESCAPED: "escaped"}

# sliding_exit detail suffix per rk4_sliding_run exit code
_SLIDING_EXIT_NOTE = {_kernels.STOP_OFF_VARIETY: " [off variety]",
                      _kernels.STOP_TANGENCY: " [tangency]",
                      _kernels.STOP_ALPHA: ""}


# -- full trajectory ----------------------------------------------------------

def simulate(sys: SwitchedSystem, x0, cfg: SimConfig = None,
             certificate: dict = None) -> Trajectory:
    """Integrate a Filippov solution from x0 until convergence, escape,
    t_end, or a stratum stop.

    certificate: optional rid -> Polynomial family; when present, the
    switched Lyapunov value is recorded on every accepted point.
    """
    cfg = cfg or SimConfig()
    x = np.asarray(x0, dtype=float)
    if not sys.in_box(x):
        raise ValueError(f"x0 {x.tolist()} is outside the system box")
    x = x.tolist()          # the state is a list of floats between segments
    traj = Trajectory()
    band = SLIDING_BAND * EVENT_TOL

    # built once per run, on first use
    @cache
    def field_of(rid):
        """The region's field at its theta, and that field's term lists."""
        F = sys.field_at(rid, (cfg.theta or {}).get(rid))
        return F, _terms(F)

    # every theta entry is checked before the run, not when its region is
    # first entered
    for rid in cfg.theta or {}:
        if rid not in sys.regions:
            raise ValueError(f"theta key {rid!r} names no region")
        try:
            field_of(rid)
        except ValueError as exc:
            raise ValueError(f"theta for region {rid!r}: {exc}") from None

    @cache
    def smooth_kernel_of(rid):
        # the varieties of the region's own boundaries, as
        # detect_crossing(..., rid) reads them
        return _kernels.smooth_kernel(field_of(rid)[1],
                                      tuple(_varieties(sys, (rid,))))

    @cache
    def grad_of(pair):
        return _terms(sys.boundary(*pair).chi.gradient())

    @cache
    def sliding_kernel_of(pair, chi):
        """The sliding kernel of pair's boundary on chi, and the boundaries
        it watches: the first on each other variety of the two regions."""
        watched = _varieties(sys, pair)
        del watched[_key_of(watched, chi)]
        i, j = pair
        return (_kernels.sliding_kernel(grad_of(pair), field_of(i)[1],
                                        field_of(j)[1], chi, *watched),
                tuple(named[0] for named in watched.values()))

    def add_segment(times, states, mode, rid=None, alphas=None):
        """The accepted points of one kernel run or one event point, psi
        from one eval_many when rid is given; no row adds nothing."""
        if times:
            psi = (None if certificate is None or rid is None
                   else certificate[rid].eval_many(states).tolist())
            traj.add(times, states, mode, alphas, psi)

    def stop(t, xx, kind, detail=""):
        # interned: the stopped points of one kind share one mode string
        add_segment([t], np.array([xx]), intern(f"stopped:{kind}"))
        traj.events.append((t, kind, detail))
        return traj

    def holds(rid, xx, s, n):
        """Whether region rid holds the probe xx + s*n."""
        return sys.regions[rid].contains([u + s * v for u, v in zip(xx, n)], 0.0)

    def pick_region(xx):
        """(rid, None) inside one region, (None, boundary) where two meet."""
        members = sorted(sys.locate(xx, tol=band))
        if len(members) == 1:
            return members[0], None
        # on a boundary: if exactly two adjacent regions, decide between
        # crossing into one of them and sliding
        if len(members) == 2:
            i, j = members
            try:
                b = sys.boundary(i, j)
            except KeyError:
                raise StratumStop(f"regions {members} meet without a declared boundary")
            return None, b
        raise StratumStop(f"{len(members)} regions meet at {xx}")

    t = 0.0
    t_stop = cfg.t_end - _kernels.T_END_SLACK
    while t < t_stop:
        # one pass per visit: the ball test, the region, on a boundary the
        # choice between sliding and a side, then the smooth kernel
        if norm(x) <= BALL_STOP:
            return stop(t, x, "converged")
        try:
            rid, b = pick_region(x)
        except StratumStop as exc:
            return stop(t, x, "stratum_stop", str(exc))
        if b is not None:
            i, j = pair = b.pair
            grad = grad_of(pair)
            chi = b.chi._term_list()
            c = _kernels.eval_terms(chi, x)
            if abs(c) > band:
                # both regions hold x, but chi_ij is off the band (chi_ij
                # and the regions' xi differ in scale): one Newton step
                # onto chi_ij = 0, as the sliding kernel projects
                n = _values(grad, x)
                nn = _dot(n, n)
                xp = ([u - (c / nn) * g for u, g in zip(x, n)]
                      if nn != 0.0 else x)
                if not abs(_kernels.eval_terms(chi, xp)) <= band:
                    return stop(t, x, "stratum_stop",
                                f"({i},{j}) off its variety where both "
                                f"regions meet")
                x = xp
            # the normal and both fields at x, for the sliding weight and
            # the transversal probe alike
            n = _values(grad, x)
            nn = _dot(n, n)
            if nn == 0.0:
                return stop(t, x, "stratum_stop",
                            f"singular boundary point of ({i},{j}): zero normal")
            fi, fj = _values(field_of(i)[1], x), _values(field_of(j)[1], x)
            ni, nj = _dot(n, fi), _dot(n, fj)
            # sliding needs both fields to point at chi_ij = 0; region i is
            # on the +n side iff it holds the probe a step d along +n
            d = 1e-3 * (1.0 + norm(x)) / math.sqrt(nn)
            i_plus = holds(i, x, d, n)
            attracting = (ni <= 0.0 <= nj) if i_plus else (nj <= 0.0 <= ni)
            slide = _kernels.sliding_field(n, fi, fj) if attracting else None
            if slide is not None and 0.0 <= slide[1] <= 1.0:
                traj.events.append((t, "sliding_entry", f"({i},{j})"))
                kernel, watched = sliding_kernel_of(pair, chi)
                states, times, alphas, x, t, code = _kernels.rk4_sliding_run(
                    kernel, x, t, cfg.t_end, cfg.step,
                    BALL_STOP, *sys.box, EVENT_TOL, band)
                add_segment(times, states, f"sliding:{i},{j}", i, alphas)
                if code in _STOP_EVENT:
                    return stop(t, x, _STOP_EVENT[code])
                if code >= _kernels.STOP_OTHER_BOUNDARY:
                    b = watched[code - _kernels.STOP_OTHER_BOUNDARY]
                    return stop(t, x, "stratum_stop",
                                f"sliding on ({i},{j}) reached ({b.i},{b.j})")
                if code != _kernels.STOP_MAXSTEPS:
                    traj.events.append(
                        (t, "sliding_exit", f"({i},{j}){_SLIDING_EXIT_NOTE[code]}"))
                # a tangency before the first accepted step leaves x, n and
                # the fields as they were: leave by the transversal rule, or
                # the next pass would slide again from the same point
                if times or code != _kernels.STOP_TANGENCY:
                    continue
            # transversal rule: continue in the region on the side F_i
            # pushes chi towards (F_j's, if <n, F_i> = 0)
            dchi = ni or nj
            if dchi == 0.0:
                return stop(t, x, "stratum_stop",
                            f"degenerate crossing of ({i},{j})")
            rid = i if (i_plus if dchi > 0.0 else holds(i, x, -d, n)) else j

        # a boundary the state sits on (the last event's) has no side until
        # the first step leaves it
        states, times, hs, code = _kernels.rk4_smooth_run(
            smooth_kernel_of(rid), x, t, cfg.t_end, cfg.step, BALL_STOP,
            *sys.box, band)
        # the escaping or boundary-flagged state is not accepted
        end = -1 if code in (_kernels.STOP_BOUNDARY, _kernels.STOP_ESCAPED) else None
        add_segment(times[1:end], states[1:end], f"smooth:{rid}", rid)
        if code != _kernels.STOP_BOUNDARY:
            t, x = times[-1], states[-1].tolist()
            if code in _STOP_EVENT:
                return stop(t, x, _STOP_EVENT[code])
            continue
        # boundary event on the last step: the kernel and detect_crossing
        # apply one rule to the same floats, so there is a hit
        x_prev, x_next = states[-2:].tolist()
        t_prev = times[-2]
        try:
            b, s, xc = detect_crossing(sys, x_prev, x_next, field_of(rid)[0], hs, rid)
        except StratumStop as exc:
            return stop(t_prev, x_prev, "stratum_stop", str(exc))
        t, x = t_prev + s * hs, xc.tolist()
        add_segment([t], np.array([x]), f"smooth:{rid}", rid)
        traj.events.append((t, "crossing", f"({b.i},{b.j})"))

    if not traj.count:
        add_segment([t], np.array([x]), "stopped:t_end")
    traj.events.append((t, "t_end", ""))
    return traj


# -- plain-text serialization --------------------------------------------------

def _one_text(column) -> bool:
    """Whether every value of column prints as the first does.

    Values with the first's bits print its text, so every nan of one
    payload is one text and -0.0 among 0.0 (it prints -0) is not; nan of
    mixed payloads read as varying, which costs only their formatting.
    The ends are compared first: a column whose ends differ costs O(1).
    """
    first, last = column[0], column[-1]
    if not (last == first or (first != first and last != last)):
        return False
    m = len(column)
    return struct.pack(f"{m}d", *column) == struct.pack("d", first) * m


def write_trajectory(traj: Trajectory, fh, manifest_hash: str = ""):
    """Delimiter-separated rows (t, x..., mode, alpha, psi) plus an events
    table, directly plottable by external tools.  Each chunk is one % of
    its row template repeated once per row, with the same bytes as one %
    per row.  An x_k, alpha or psi column that prints one text on every
    row of the chunk is that text in the template, formatted once; the
    time column and the others are the % arguments."""
    if manifest_hash:
        fh.write(f"# manifest {manifest_hash}\n")
    dim = traj.chunks[0][1].shape[1] if traj.chunks else 0
    cols = ["t"] + [f"x{k + 1}" for k in range(dim)] + ["mode", "alpha", "psi"]
    fh.write("\t".join(cols) + "\n")
    text = []
    for times, states, mode, alphas, psi in traj.chunks:
        # one template per chunk: a missing alpha or psi is an empty cell
        cells, columns = ["%.9g"], [times]
        for fmt, column in [*zip(repeat("%.12g"), states.T.tolist()),
                            ("%.9g", alphas), ("%.12g", psi)]:
            if column is None:
                cells.append("")
            elif _one_text(column):
                cells.append((fmt % column[0]).replace("%", "%%"))
            else:
                cells.append(fmt)
                columns.append(column)
        cells.insert(dim + 1, mode.replace("%", "%%"))
        row = "\t".join(cells) + "\n"
        # the chunk's values row after row, column j at j, j + k, ...: one
        # % formats the whole chunk
        k, m = len(columns), len(times)
        values = [None] * (k * m)
        for j, column in enumerate(columns):
            values[j::k] = column
        text.append((row * m) % tuple(values))
    fh.write("".join(text))
    fh.write("\n# events\n# t\tkind\tdetail\n")
    for (t, kind, detail) in traj.events:
        fh.write(f"{t:.9g}\t{kind}\t{detail}\n")
