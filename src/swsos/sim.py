"""Filippov trajectory integration on semi-algebraic partitions.

Fixed-step RK4 inside a region, bisection event localization on the cubic
dense interpolant when a boundary variety changes sign, and first-order
sliding dynamics from the convexified inclusion when the adjacent normal
components point at each other.  Codimension >= 2 strata stop the run
(stratum_stop) instead of guessing a selection from the convex hull.

Both inner loops run in RK4 segment kernels that _kernels generates from
the term lists each field and boundary polynomial caches: rk4_smooth_run
inside a region, rk4_sliding_run along a boundary variety.  simulate
compiles each region's and each boundary's kernel once per run, on first
use; the small nudge off a boundary after an event is one step of the
region's smooth kernel.  Event handling, the decisions between crossing
and sliding, the chattering guard and the switched Lyapunov value (one
batch evaluation per segment) live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern

import numpy as np

from . import _kernels
from .poly import PolyVector
from .system import SwitchedSystem

SLIDING_BAND = 10.0          # sliding keeps |chi| <= SLIDING_BAND * event_tol
CHATTER_CROSSINGS = 50       # crossings of one boundary ...
CHATTER_WINDOW = 100         # ... within this many accepted steps
CHATTER_MAX_HALVINGS = 3


@dataclass
class SimConfig:
    step: float = 1e-3
    event_tol: float = 1e-9
    t_end: float = 50.0
    theta: dict = None           # rid -> simplex weights; None = first vertex
    ball_stop: float = 1e-4

    def __post_init__(self):
        if not all(v > 0 and np.isfinite(v)
                   for v in (self.step, self.event_tol, self.t_end)):
            raise ValueError("step, event_tol and t_end must all be finite and > 0")


@dataclass
class TrajectoryPoint:
    t: float
    x: np.ndarray
    mode: str                    # "smooth:<rid>" | "sliding:<i>,<j>" | "stopped:<why>"
    alpha: float = None          # sliding weight, when sliding
    psi: float = None            # switched Lyapunov value, when loaded


@dataclass
class Trajectory:
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)    # (t, kind, detail)

    @property
    def final_state(self) -> np.ndarray:
        return self.points[-1].x

    @property
    def final_time(self) -> float:
        return self.points[-1].t

    def event_kinds(self):
        return [kind for _, kind, _ in self.events]

    def converged(self) -> bool:
        return "converged" in self.event_kinds()


def _theta_for(sys: SwitchedSystem, cfg: SimConfig, rid: int):
    count = sys.dynamics[rid].count
    if cfg.theta and rid in cfg.theta:
        return np.asarray(cfg.theta[rid], dtype=float)
    th = np.zeros(count)
    th[0] = 1.0
    return th


# -- elementary operations ----------------------------------------------------

def step_smooth(sys: SwitchedSystem, rid: int, x, h: float, theta) -> np.ndarray:
    """One classical RK4 step of xdot = F_rid(x, theta)."""
    if h <= 0:
        raise ValueError("h must be > 0")
    return _rk4_step(sys.field_at(rid, theta), x, h)


def _rk4_step(F: PolyVector, x, h: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    k1 = F(x)
    k2 = F(x + 0.5 * h * k1)
    k3 = F(x + 0.5 * h * k2)
    k4 = F(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _hermite(x0, f0, x1, f1, h, s):
    """Cubic dense interpolant across one RK4 step, s in [0, 1]."""
    a = 2 * (x0 - x1) + h * (f0 + f1)
    b = -3 * (x0 - x1) - h * (2 * f0 + f1)
    return ((a * s + b) * s + h * f0) * s + x0


def detect_crossing(sys: SwitchedSystem, x_prev, x_next, field=None,
                    event_tol: float = 1e-9, h: float = 1.0):
    """Earliest boundary sign change across a step, or None.

    Returns (boundary, s, x_cross) with s the step fraction, localized by
    bisection; the dense cubic interpolant is used when the step's vector
    field is supplied, straight-line interpolation otherwise.  Raises
    StratumStop when several boundaries change sign at an unseparable
    fraction (codimension >= 2).
    """
    x_prev = np.asarray(x_prev, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if not (np.all(np.isfinite(x_prev)) and np.all(np.isfinite(x_next))):
        raise ValueError("states must be finite")
    if field is not None:
        f0, f1 = field(x_prev), field(x_next)
        interp = lambda s: _hermite(x_prev, f0, x_next, f1, h, s)
    else:
        interp = lambda s: x_prev + s * (x_next - x_prev)

    hits = []
    for b in sys.boundaries:
        c0, c1 = b.chi(x_prev), b.chi(x_next)
        if c0 == 0.0 and c1 == 0.0:
            continue
        if np.sign(c0) * np.sign(c1) < 0 or (c0 != 0.0 and abs(c1) <= event_tol):
            lo, hi = 0.0, 1.0
            flo = c0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = b.chi(interp(mid))
                if abs(fm) <= event_tol:
                    lo = hi = mid
                    break
                if np.sign(fm) == np.sign(flo):
                    lo = mid
                else:
                    hi = mid
            s = 0.5 * (lo + hi)
            hits.append((s, b))
    if not hits:
        return None
    hits.sort(key=lambda t: t[0])
    if len(hits) > 1 and hits[1][0] - hits[0][0] <= event_tol:
        raise StratumStop(
            f"boundaries {[h[1].pair for h in hits[:2]]} cross within "
            f"event_tol of the same time")
    s, b = hits[0]
    return b, s, interp(s)


class StratumStop(RuntimeError):
    """Trajectory reached a codimension >= 2 stratum; no selection rule."""


class Tangency(RuntimeError):
    """Both fields are tangent to the boundary; sliding weight undefined."""


def sliding_weight(sys: SwitchedSystem, pair, x, theta_i=None, theta_j=None,
                   event_tol: float = 1e-9) -> float:
    """Filippov convex weight alpha with F_s = alpha*F_i + (1-alpha)*F_j.

    alpha = <n, F_j> / <n, F_j - F_i> with n the boundary normal at x;
    the resulting F_s is tangent to {chi_ij = 0}.  A denominator under
    1e-12 is a tangency; a vanishing normal is a singular boundary point.
    """
    i, j = pair
    b = sys.boundary(i, j)
    th_i = theta_i if theta_i is not None else _theta_for(sys, SimConfig(), i)
    th_j = theta_j if theta_j is not None else _theta_for(sys, SimConfig(), j)
    return _sliding_weight(b, pair, b.chi.gradient(),
                           sys.field_at(i, th_i), sys.field_at(j, th_j),
                           x, event_tol)


def _sliding_weight(b, pair, grad: PolyVector, Fi: PolyVector, Fj: PolyVector,
                    x, event_tol: float) -> float:
    """sliding_weight with the boundary gradient and both fields prebuilt."""
    i, j = pair
    x = np.asarray(x, dtype=float)
    if abs(b.chi(x)) > SLIDING_BAND * event_tol:
        raise ValueError(f"point is not on boundary ({i},{j})")
    n = grad(x)
    if np.linalg.norm(n) == 0.0:
        raise StratumStop(f"singular boundary point of ({i},{j}): zero normal")
    slide = _kernels.sliding_field(n.tolist(), Fi(x).tolist(), Fj(x).tolist())
    if slide is None:
        raise Tangency(f"fields tangent to boundary ({i},{j})")
    return slide[1]


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
    box_lo, box_hi = (v.tolist() for v in sys.box)
    traj = Trajectory()
    # built once per run, on first use
    fields = {}             # rid -> field at its theta
    grads = {}              # boundary pair -> chi gradient
    smooth_kernels = {}     # rid -> _kernels.smooth_kernel of its field
    sliding_kernels = {}    # boundary pair -> _kernels.sliding_kernel
    chis = [b.chi._term_list() for b in sys.boundaries]

    def field_of(rid):
        if rid not in fields:
            fields[rid] = sys.field_at(rid, _theta_for(sys, cfg, rid))
        return fields[rid]

    def grad_of(b):
        if b.pair not in grads:
            grads[b.pair] = b.chi.gradient()
        return grads[b.pair]

    def smooth_kernel_of(rid):
        if rid not in smooth_kernels:
            smooth_kernels[rid] = _kernels.smooth_kernel(
                [p._term_list() for p in field_of(rid)], chis)
        return smooth_kernels[rid]

    def sliding_kernel_of(b):
        if b.pair not in sliding_kernels:
            i, j = b.pair
            sliding_kernels[b.pair] = _kernels.sliding_kernel(
                *([p._term_list() for p in v]
                  for v in (grad_of(b), field_of(i), field_of(j))),
                b.chi._term_list())
        return sliding_kernels[b.pair]

    def add_point(t, xx, mode, rid=None):
        psi = None
        if certificate is not None and rid is not None:
            psi = float(certificate[rid](xx))
        traj.points.append(TrajectoryPoint(
            t=float(t), x=np.array(xx, dtype=float), mode=mode, psi=psi))

    def add_segment(times, states, mode, rid, alphas=None):
        """The accepted points of one kernel run, psi from one eval_many."""
        m = len(times)
        psi = ([None] * m if certificate is None
               else certificate[rid].eval_many(states).tolist())
        traj.points.extend(map(TrajectoryPoint, times, states, [mode] * m,
                               alphas or [None] * m, psi))

    def stop(t, xx, kind, detail=""):
        # interned: the stopped points of one kind share one mode string
        add_point(t, xx, intern(f"stopped:{kind}"))
        traj.events.append((t, kind, detail))
        return traj

    def pick_region(xx):
        """Region whose (theta-combined) field keeps xx in its closure."""
        members = sorted(sys.locate(xx, tol=SLIDING_BAND * max(cfg.event_tol, 1e-12)))
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
            return None, (b.i, b.j)
        raise StratumStop(f"{len(members)} regions meet at {xx.tolist()}")

    h = cfg.step
    halvings = 0
    t = 0.0
    recent_crossings = []   # (step index counter, pair) for the chattering guard
    step_counter = 0

    state = "decide"        # decide | smooth | sliding | done
    rid = None
    pair = None

    while t < cfg.t_end - 1e-15:
        if np.linalg.norm(x) <= cfg.ball_stop:
            return stop(t, x, "converged")

        if state == "decide":
            try:
                r, p = pick_region(x)
            except StratumStop as exc:
                return stop(t, x, "stratum_stop", str(exc))
            if r is not None:
                rid, state = r, "smooth"
            else:
                i, j = p
                b = sys.boundary(i, j)
                try:
                    alpha = _sliding_weight(b, (i, j), grad_of(b),
                                            field_of(i), field_of(j), x,
                                            cfg.event_tol)
                except Tangency:
                    alpha = None
                except StratumStop as exc:
                    return stop(t, x, "stratum_stop", str(exc))
                if alpha is not None and 0.0 <= alpha <= 1.0:
                    pair, state = (i, j), "sliding"
                    # sliding dynamics are smooth; undo any chattering halvings
                    h, halvings = cfg.step, 0
                    recent_crossings.clear()
                    traj.events.append((t, "sliding_entry", f"({i},{j})"))
                else:
                    # transversal crossing: both fields push chi the same
                    # way; continue in the region owning that side
                    n = grad_of(b)(x)
                    dchi = float(np.dot(n, field_of(i)(x)))
                    if dchi == 0.0:
                        dchi = float(np.dot(n, field_of(j)(x)))
                    nn = np.linalg.norm(n)
                    if nn == 0.0 or dchi == 0.0:
                        return stop(t, x, "stratum_stop",
                                    f"degenerate crossing of ({i},{j})")
                    probe = x + np.sign(dchi) * (1e-3 * (1.0 + np.linalg.norm(x)) / nn) * n
                    rid = i if all(xi(probe) >= 0.0 for xi in sys.regions[i].xi) else j
                    state = "smooth"
            continue

        if state == "smooth":
            F = field_of(rid)
            kernel = smooth_kernel_of(rid)
            # nudge off the boundary if the previous event left us on it:
            # one step of the region's kernel, called directly because a
            # nudge is not a segment (the stepped state is the last row)
            guard = 0
            while any(abs(b.chi(x)) <= 2 * cfg.event_tol for b in sys.boundaries) \
                    and guard < 8:
                flat = kernel(x.tolist(), h * 1e-3, 1, -1.0, box_lo, box_hi,
                              cfg.event_tol)[0]
                x = np.array(flat[-x.shape[0]:])
                t += h * 1e-3
                guard += 1
            max_steps = max(int(np.ceil((cfg.t_end - t) / h)), 1)
            states, code, bidx = _kernels.rk4_smooth_run(
                kernel, x, h, max_steps, cfg.ball_stop, box_lo, box_hi,
                cfg.event_tol)
            accepted = states[1:states.shape[0] - (1 if code in
                              (_kernels.STOP_BOUNDARY, _kernels.STOP_ESCAPED) else 0)]
            add_segment([t + k * h for k in range(1, accepted.shape[0] + 1)],
                        accepted, f"smooth:{rid}", rid)
            step_counter += states.shape[0] - 1

            if code != _kernels.STOP_BOUNDARY:
                t = t + (states.shape[0] - 1) * h
                x = states[-1]
                if code == _kernels.STOP_CONVERGED:
                    return stop(t, x, "converged")
                if code == _kernels.STOP_ESCAPED:
                    return stop(t, x, "escaped")
                break
            # boundary event: localize on the last step
            x_prev = states[-2]
            x_next = states[-1]
            t_prev = t + (states.shape[0] - 2) * h
            try:
                hit = detect_crossing(sys, x_prev, x_next, field=F,
                                      event_tol=cfg.event_tol, h=h)
            except StratumStop as exc:
                return stop(t_prev, x_prev, "stratum_stop", str(exc))
            if hit is None:
                # the kernel flagged proximity without a sign change; accept
                # the step and continue from x_next
                t = t_prev + h
                x = x_next
                add_point(t, x, f"smooth:{rid}", rid=rid)
                state = "decide"
                continue
            b, s, xc = hit
            t = t_prev + s * h
            add_point(t, xc, f"smooth:{rid}", rid=rid)
            traj.events.append((t, "crossing", f"({b.i},{b.j})"))
            recent_crossings.append((step_counter, b.pair))
            x = xc
            # chattering guard
            recent_crossings = [(sc, p) for (sc, p) in recent_crossings
                                if step_counter - sc <= CHATTER_WINDOW]
            if sum(1 for _, p in recent_crossings if p == b.pair) > CHATTER_CROSSINGS:
                if halvings < CHATTER_MAX_HALVINGS:
                    h *= 0.5
                    halvings += 1
                    traj.events.append((t, "step_halved", f"h={h:g}"))
                else:
                    pair, state = b.pair, "sliding"
                    h, halvings = cfg.step, 0
                    recent_crossings.clear()
                    traj.events.append((t, "sliding_entry",
                                        f"({b.pair[0]},{b.pair[1]}) [chattering]"))
                    continue
            state = "decide"
            continue

        if state == "sliding":
            i, j = pair
            b = sys.boundary(i, j)
            states, times, alphas, x, t, code = _kernels.rk4_sliding_run(
                sliding_kernel_of(b), x, t, cfg.t_end, h, cfg.ball_stop,
                box_lo, box_hi, cfg.event_tol, SLIDING_BAND * cfg.event_tol)
            x = np.array(x)
            add_segment(times, states, f"sliding:{i},{j}", i, alphas)
            step_counter += len(times)
            if code == _kernels.STOP_CONVERGED:
                return stop(t, x, "converged")
            if code == _kernels.STOP_ESCAPED:
                return stop(t, x, "escaped")
            if code != _kernels.STOP_MAXSTEPS:
                traj.events.append(
                    (t, "sliding_exit", f"({i},{j}){_SLIDING_EXIT_NOTE[code]}"))
                state = "decide"
            continue

    if not traj.points or t - traj.points[-1].t > 1e-15:
        add_point(t, x, "stopped:t_end")
    traj.events.append((t, "t_end", ""))
    return traj


# -- plain-text serialization --------------------------------------------------

def write_trajectory(traj: Trajectory, fh, manifest_hash: str = ""):
    """Delimiter-separated rows (t, x..., mode, alpha, psi) plus an events
    table, directly plottable by external tools."""
    if manifest_hash:
        fh.write(f"# manifest {manifest_hash}\n")
    dim = len(traj.points[0].x) if traj.points else 0
    cols = ["t"] + [f"x{k + 1}" for k in range(dim)] + ["mode", "alpha", "psi"]
    fh.write("\t".join(cols) + "\n")
    row = "%.9g\t" + "%.12g\t" * dim + "%s\t%s\t%s\n"
    xs = np.array([p.x for p in traj.points]).tolist()
    fh.write("".join([
        row % (p.t, *x, p.mode,
               "" if p.alpha is None else "%.9g" % p.alpha,
               "" if p.psi is None else "%.12g" % p.psi)
        for p, x in zip(traj.points, xs)]))
    fh.write("\n# events\n# t\tkind\tdetail\n")
    for (t, kind, detail) in traj.events:
        fh.write(f"{t:.9g}\t{kind}\t{detail}\n")
