import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from swsos import _kernels, sim
from swsos.poly import parse_polynomial, parse_vector
from swsos.sim import (SimConfig, StratumStop, Tangency, Trajectory,
                       detect_crossing, simulate, sliding_weight,
                       write_trajectory)
from swsos.system import load_system, parse_system
from trajectory_corpus import digests, tsvs


def _scalar_decay():
    return parse_system({
        "dimension": 1,
        "box": [[-2.0, 2.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [1.0]}],
        "boundaries": [],
        "dynamics": {"1": [["-x1"]]},
        "origin_regions": [1],
    })


def _rk4_step(F, x, h):
    # one classical RK4 step of xdot = F(x) on numpy arrays: the reference
    # for the region kernel's single step
    x = np.asarray(x, dtype=float)
    k1 = F(x)
    k2 = F(x + 0.5 * h * k1)
    k3 = F(x + 0.5 * h * k2)
    k4 = F(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(step=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)
    # the event tolerance and the ball stop are sim.EVENT_TOL and sim.BALL_STOP
    assert [f.name for f in fields(SimConfig)] == ["step", "t_end", "theta"]


def test_step_smooth_rk4_accuracy():
    # exact flow of xdot = -x from 1 over t=1 is e^-1
    sys_ = _scalar_decay()
    traj = simulate(sys_, (1.0,), SimConfig(step=0.1, t_end=1.0))
    assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-6


def test_step_smooth_zero_field_fixed_point():
    sys_ = parse_system({
        "dimension": 1, "box": [[-1.0, 1.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [0.5]}],
        "boundaries": [], "dynamics": {"1": [["0"]]}, "origin_regions": [],
    })
    traj = simulate(sys_, (0.3,), SimConfig(step=0.5, t_end=0.5))
    assert traj.final_state[0] == 0.3


def _constant_field(*values):
    return parse_vector([repr(v) for v in values], len(values))


def test_detect_crossing_linear(opposing_system):
    # a constant field makes the Hermite cubic the straight line of the
    # step: chi = x2 crosses at s = 0.5
    hit = detect_crossing(opposing_system, (0.0, 0.1), (0.0, -0.1),
                          _constant_field(0.0, -0.2), 1.0, 1)
    assert hit is not None
    b, s, xc = hit
    assert b.pair == (1, 2)
    assert abs(s - 0.5) < 1e-9
    assert abs(xc[1]) < 1e-9


def _ref_hermite(x0, f0, x1, f1, h, s):
    a = 2 * (x0 - x1) + h * (f0 + f1)
    b = -3 * (x0 - x1) - h * (2 * f0 + f1)
    return ((a * s + b) * s + h * f0) * s + x0


def _ref_detect_crossing(sys, x_prev, x_next, field, h, rid, event_tol=1e-9):
    # the numpy 2-vector bisection detect_crossing replaced, with its event
    # rule: a sign change, or a landing on zero, of chi over the step, and
    # the bracket end hi on the far side as the crossing; a step in region
    # rid watches only rid's boundaries
    x_prev = np.asarray(x_prev, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    f0, f1 = field(x_prev), field(x_next)
    interp = lambda s: _ref_hermite(x_prev, f0, x_next, f1, h, s)
    hits = []
    for b in sys.boundaries:
        if rid not in b.pair:
            continue
        c0, c1 = b.chi(x_prev), b.chi(x_next)
        if c0 * c1 < 0.0 or (c1 == 0.0 and c0 != 0.0):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = b.chi(interp(mid))
                if np.sign(fm) == np.sign(c0):
                    lo = mid
                else:
                    hi = mid
                    if abs(fm) <= event_tol:
                        break
            hits.append((hi, b))
    if not hits:
        return None
    hits.sort(key=lambda t: t[0])
    if len(hits) > 1 and hits[1][0] - hits[0][0] <= event_tol:
        raise StratumStop("codimension >= 2")
    s, b = hits[0]
    return b, s, interp(s)


def _assert_same_crossing(got, ref):
    if ref is None:
        assert got is None
        return
    assert got[0] is ref[0]
    assert got[1] == ref[1]
    assert got[2].dtype == ref[2].dtype and got[2].tobytes() == ref[2].tobytes()


def test_detect_crossing_matches_numpy_reference(monkeypatch):
    # every step the trajectory corpus localizes
    steps = []
    detect = sim.detect_crossing

    def record(*args, **kwargs):
        steps.append((args, kwargs))
        return detect(*args, **kwargs)

    monkeypatch.setattr(sim, "detect_crossing", record)
    digests()
    monkeypatch.undo()
    assert len(steps) > 20
    for args, kwargs in steps:
        ref = _ref_detect_crossing(*args, **kwargs)
        assert ref is not None
        _assert_same_crossing(detect_crossing(*args, **kwargs), ref)


@pytest.mark.parametrize("x_prev, x_next", [((0.0, -1.0), (0.0, 1.0)),
                                            ((0.0, 1.0), (0.0, -1.0))])
def test_detect_crossing_nan_chi_mid_step(x_prev, x_next):
    # chi = x2 at both ends (x1 = 0), but the Hermite bulge in x1 (the field
    # is about 2e160 there) makes 1e300*x1^2 - 1e300*x1^3 = inf - inf = nan at
    # every midpoint down to 2^-200: a nan never matches a side, so each
    # bisection step keeps the lower half, from either crossing direction,
    # and the crossing is the bracket end hi = 2^-200
    sys_ = parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [{"i": 1, "j": 2,
                        "chi_ij": "x2 + 1e300*x1^2 - 1e300*x1^3",
                        "witness": [0.0, 0.0]}],
        "dynamics": {"1": [["1e160 + 1e160*x2^2", "1"]],
                     "2": [["1e160 + 1e160*x2^2", "1"]]},
        "origin_regions": [],
    })
    b = sys_.boundaries[0]
    F = sys_.field_at(1, (1.0,))
    mid = _ref_hermite(np.array(x_prev), F(x_prev), np.array(x_next),
                       F(x_next), 1.0, 0.5)
    assert np.isnan(b.chi(mid))
    ref = _ref_detect_crossing(sys_, x_prev, x_next, F, 1.0, 1)
    assert ref[1] == 2.0 ** -200
    _assert_same_crossing(detect_crossing(sys_, x_prev, x_next, F, 1.0, 1), ref)


def test_detect_crossing_none_without_sign_change(opposing_system):
    assert detect_crossing(opposing_system, (0.0, 0.2), (0.0, 0.1),
                           _constant_field(0.0, -0.1), 1.0, 1) is None
    # near zero, or leaving zero, is no event either: only a sign change or
    # a landing on zero is
    for x_prev, x_next in (((0.0, 2e-10), (0.0, 1e-10)),
                           ((0.0, 0.0), (0.0, -1e-10))):
        assert detect_crossing(opposing_system, x_prev, x_next,
                               _constant_field(0.0, -1e-10), 1.0, 1) is None


def test_detect_crossing_lands_past_the_boundary(opposing_system):
    # the state after a crossing is on the far side of chi, or on chi = 0
    for x_prev, x_next, v in (((0.0, 0.1), (0.0, -0.1), -0.2),
                              ((0.0, -0.3), (0.0, 0.7), 1.0),
                              ((0.0, 0.1), (0.0, 0.0), -0.1)):
        _, s, xc = detect_crossing(opposing_system, x_prev, x_next,
                                   _constant_field(0.0, v), 1.0, 1)
        assert 0.0 < s <= 1.0
        assert xc[1] * x_prev[1] <= 0.0 and abs(xc[1]) <= 1e-9


def test_detect_crossing_rejects_nonfinite(opposing_system):
    with pytest.raises(ValueError):
        detect_crossing(opposing_system, (0.0, np.nan), (0.0, -0.1),
                        _constant_field(0.0, -0.2), 1.0, 1)


def test_sliding_weight_reference_values(opposing_system):
    # n = (0,1), F1 = (1,-1), F2 = (-1,1): alpha = 1 / (1 - (-1)) = 0.5
    alpha = sliding_weight(opposing_system, (1, 2), (0.3, 0.0))
    assert abs(alpha - 0.5) < 1e-12


def test_sliding_weight_formula_direct():
    # n = (0,1), F_i = (2,-1), F_j = (1,3) -> alpha = 3/4, F_s = (7/4, 0)
    sys_ = parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2", "witness": [1.0, 0.0]}],
        "dynamics": {"1": [["2", "-1"]], "2": [["1", "3"]]},
        "origin_regions": [],
    })
    alpha = sliding_weight(sys_, (1, 2), (0.0, 0.0))
    assert abs(alpha - 0.75) < 1e-12
    Fs = alpha * np.array([2.0, -1.0]) + (1 - alpha) * np.array([1.0, 3.0])
    assert np.allclose(Fs, [1.75, 0.0])


def test_sliding_weight_rejects_off_boundary(opposing_system):
    with pytest.raises(ValueError):
        sliding_weight(opposing_system, (1, 2), (0.0, 0.5))
    with pytest.raises(ValueError):
        sliding_weight(opposing_system, (1, 2), (0.0,))


def test_sliding_weight_tangency():
    sys_ = parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2", "witness": [1.0, 0.0]}],
        "dynamics": {"1": [["1", "0"]], "2": [["-1", "0"]]},
        "origin_regions": [],
    })
    with pytest.raises(Tangency):
        sliding_weight(sys_, (1, 2), (0.0, 0.0))


def test_simulate_scalar_convergence_time():
    # converged event at t ~= ln(1/BALL_STOP) = ln(1e4) ~= 9.21, within 1%
    traj = simulate(_scalar_decay(), (1.0,), SimConfig(step=1e-3))
    assert "converged" in traj.event_kinds()
    t_conv = [t for t, kind, _ in traj.events if kind == "converged"][0]
    assert abs(t_conv - np.log(1e4)) / np.log(1e4) < 0.01


def test_simulate_smooth_run_ends_at_t_end():
    # 1234.5 steps of h: the run takes 1234 of them and one of h/2
    traj = simulate(_scalar_decay(), (1.0,), SimConfig(step=1e-3, t_end=1.2345))
    assert abs(traj.points[-1].t - 1.2345) <= 1e-12
    assert traj.events == [(traj.points[-1].t, "t_end", "")]
    times = [p.t for p in traj.points]
    assert times[:-1] == [k * 1e-3 for k in range(1, 1235)]
    assert abs(traj.final_state[0] - np.exp(-1.2345)) < 1e-9


def test_run_shorter_than_the_t_end_slack_is_one_stopped_row(quadrant_system):
    # t_end lies within _kernels.T_END_SLACK of the start, so no step is
    # taken: the run is the start, stopped at t = 0
    traj = simulate(quadrant_system, (1.0, 1.0), SimConfig(t_end=1e-16))
    assert [(p.t, p.x.tolist(), p.mode) for p in traj.points] == [
        (0.0, [1.0, 1.0], "stopped:t_end")]
    assert traj.events == [(0.0, "t_end", "")]


def test_chattering_run_ends_at_t_end(opposing_system):
    # the step from t = 0.5 would end at 0.501, past t_end = 0.5005, so it
    # ends on t_end; the crossing of x2 = 0 at t = 0.5002 inside that
    # clamped step is localized, the sliding that follows ends on t_end too,
    # and nothing lies past t_end
    traj = simulate(opposing_system, (0.0, 0.5002), SimConfig(t_end=0.5005))
    assert traj.points[-1].t == 0.5005
    assert max(t for t, _, _ in traj.events) == 0.5005
    assert traj.event_kinds() == ["crossing", "sliding_entry", "t_end"]
    assert 0.5 < traj.events[0][0] < 0.5005
    assert abs(traj.events[0][0] - 0.5002) < 1e-9
    assert traj.points[-1].mode == "sliding:1,2"


def test_simulate_rejects_x0_outside_box():
    with pytest.raises(ValueError):
        simulate(_scalar_decay(), (5.0,), SimConfig())


def test_simulate_times_strictly_increasing(opposing_system):
    traj = simulate(opposing_system, (0.0, 0.5), SimConfig(step=1e-3, t_end=1.0))
    times = [p.t for p in traj.points]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_simulate_sliding_entry_and_modes(opposing_system):
    traj = simulate(opposing_system, (0.0, 0.5), SimConfig(step=1e-3, t_end=1.0))
    kinds = traj.event_kinds()
    assert "crossing" in kinds or "sliding_entry" in kinds
    assert "sliding_entry" in kinds
    sliding_pts = [p for p in traj.points if p.mode.startswith("sliding")]
    assert sliding_pts
    assert all(0.0 <= p.alpha <= 1.0 for p in sliding_pts)


def test_simulate_psi_recorded_with_certificate(quadrant_system,
                                                published_lyapunov):
    traj = simulate(quadrant_system, (1.0, 1.0),
                    SimConfig(step=1e-3, t_end=2.0),
                    certificate=published_lyapunov)
    psis = [p.psi for p in traj.points if p.psi is not None]
    assert len(psis) > 100
    assert all(v >= 0 for v in psis)


def test_simulate_escape(quadrant_system):
    # the region-2 vertex field leaves the box from far out on the x2 axis
    blow_up = parse_system({
        "dimension": 1, "box": [[-2.0, 2.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [1.0]}],
        "boundaries": [], "dynamics": {"1": [["x1"]]}, "origin_regions": [],
    })
    traj = simulate(blow_up, (1.0,), SimConfig(step=1e-2, t_end=10.0))
    assert "escaped" in traj.event_kinds()
    assert "converged" not in traj.event_kinds()


def _two_sided_doc(f1, f2):
    # x2 >= 0 runs F_1, x2 <= 0 runs F_2, boundary x2 = 0
    return {
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2", "witness": [1.0, 0.0]}],
        "dynamics": {"1": [f1], "2": [f2]},
        "origin_regions": [1, 2],
    }


def _two_sided(f1, f2):
    return parse_system(_two_sided_doc(f1, f2))


def test_simulate_converges_while_sliding():
    # falls onto x2 = 0 at t = 0.5, then slides with F_s = (-x1, 0) until
    # |x| <= 1e-4 at t ~= ln(1e4)
    traj = simulate(_two_sided(["-x1", "-1"], ["-x1", "1"]), (1.0, 0.5),
                    SimConfig(step=1e-3, t_end=20.0))
    assert [(kind, detail) for _, kind, detail in traj.events] == [
        ("crossing", "(1,2)"), ("sliding_entry", "(1,2)"), ("converged", "")]
    t_conv = traj.events[-1][0]
    assert abs(t_conv - np.log(1e4)) < 0.01
    last, stop_pt = traj.points[-2:]
    assert last.mode == "sliding:1,2" and last.alpha == 0.5
    assert stop_pt.mode == "stopped:converged" and stop_pt.alpha is None
    assert stop_pt.t == last.t == t_conv
    assert np.array_equal(stop_pt.x, last.x)
    assert sum(p.mode.startswith("stopped") for p in traj.points) == 1


def test_simulate_escapes_while_sliding():
    # falls onto x2 = 0 at t = 0.5, x1 = 0.5, then slides with F_s = (1, 0)
    # out of the box at x1 = 2
    traj = simulate(_two_sided(["1", "-1"], ["1", "1"]), (0.0, 0.5),
                    SimConfig(step=1e-3, t_end=20.0))
    assert [(kind, detail) for _, kind, detail in traj.events] == [
        ("crossing", "(1,2)"), ("sliding_entry", "(1,2)"), ("escaped", "")]
    stop_pt = traj.points[-1]
    assert stop_pt.mode == "stopped:escaped" and stop_pt.alpha is None
    assert stop_pt.x[0] > 2.0 and stop_pt.t == traj.events[-1][0]
    sliding = [p for p in traj.points if p.mode == "sliding:1,2"]
    assert len(sliding) > 1000
    assert max(p.x[0] for p in sliding) <= 2.0
    assert sliding[-1].t < stop_pt.t


def test_chattering_run_pins_event_counts(quadrant_system):
    # at theta = 1 the run from (0.3, -2) reaches x1*x2 = 0 at t ~= 1.80 and
    # slides on it to t_end.  An event band of |chi| <= 1e-9 with no sign
    # test counted 405 crossings there, with 21 step halvings and 7 forced
    # sliding entries that exited at once; the final state is the same to 5
    # digits
    from swsos.cli import _theta_table
    cfg = SimConfig(t_end=2.0, theta=_theta_table(quadrant_system, (1.0, 0.0)))
    traj = simulate(quadrant_system, (0.3, -2.0), cfg)
    assert [(kind, detail) for _, kind, detail in traj.events] == [
        ("crossing", "(1,2)"), ("sliding_entry", "(1,2)"), ("t_end", "")]
    assert abs(traj.events[0][0] - 1.8045) < 1e-4
    assert abs(np.linalg.norm(traj.final_state) - 0.72588) < 1e-5


def test_theta1_run_from_2_2_matches_closed_form(quadrant_system):
    # at theta = 1 region 1 runs (-x1, -x2^3): from (2, 2) the solution
    # x1 = 2e^-t, x2 = 2/sqrt(1 + 8t) stays in the open first quadrant.  An
    # event band of |chi| <= 1e-9 logged a crossing at t = 19.58, where
    # x1*x2 entered it, and ended the run in the third quadrant
    from swsos.cli import _theta_table
    cfg = SimConfig(t_end=50.0, theta=_theta_table(quadrant_system, (1.0, 0.0)))
    traj = simulate(quadrant_system, (2.0, 2.0), cfg)
    assert traj.event_kinds() == ["t_end"]
    x1, x2 = traj.final_state
    assert x1 > 0.0
    assert abs(x2 - 2 / math.sqrt(401)) <= 1e-9 * (2 / math.sqrt(401))


def _branicky_a_exact(x, ball=1e-4):
    # the exact crossing times and ball time of branicky-a.sys, quadrant by
    # quadrant: both matrices are -I/10 + B with B^2 = -10 I, so the flow
    # is e^(-t/10) (cos(wt) x + sin(wt)/w B x) with w = sqrt(10); each
    # event is bracketed on a 1e-4 grid, then bisected
    w = math.sqrt(10.0)
    B = {1: np.array([[0.0, 1.0], [-10.0, 0.0]]),
         2: np.array([[0.0, 10.0], [-1.0, 0.0]])}
    times, t = [], 0.0
    while True:
        Bx = B[1 if x[0] * x[1] > 0 else 2] @ x
        flow = lambda s: math.exp(-0.1 * s) * (math.cos(w * s) * x
                                               + math.sin(w * s) / w * Bx)
        inside = lambda s: (flow(s)[0] * flow(s)[1] * x[0] * x[1] > 0
                            and np.linalg.norm(flow(s)) > ball)
        hi = 1e-4
        while inside(hi):
            hi += 1e-4
        lo = hi - 1e-4
        for _ in range(60):
            lo, hi = ((0.5 * (lo + hi), hi) if inside(0.5 * (lo + hi))
                      else (lo, 0.5 * (lo + hi)))
        x, t = flow(hi), t + hi
        times.append(t)
        if np.linalg.norm(x) <= ball:
            return times


def test_branicky_a_crosses_six_times_then_converges(systems_dir):
    # a stable switched pair of spirals on the quadrants of x1*x2 (Branicky,
    # IEEE TAC 1998): the exact flow crosses six times, each closer to the
    # origin where the gradient of chi vanishes, then reaches the ball.  An
    # event band of |chi| <= 1e-9 counted 266 crossings there
    sys_ = load_system(systems_dir / "branicky-a.sys")
    traj = simulate(sys_, (0.05, 0.05), SimConfig(t_end=5.0))
    assert traj.event_kinds() == ["crossing"] * 6 + ["converged"]
    exact = _branicky_a_exact(np.array([0.05, 0.05]))
    assert len(exact) == 7
    for (t, _, _), t_exact in zip(traj.events[:6], exact):
        assert abs(t - t_exact) < 5e-4
    assert abs(traj.events[-1][0] - exact[-1]) < 2e-3


def test_twisting_crosses_at_the_closed_form_times_then_converges(systems_dir):
    # x1'' = -2 sign(x1) - sign(x2) (Levant, Int. J. Control 1993) on four
    # quadrants: constant accelerations -3, 1, 3, -1 make each arc a
    # parabola, so the event times have a closed form.  The pairs (1,4) and
    # (2,3) share x2 = 0: a run that watched every boundary from every
    # region stopped at the first crossing with a stratum stop
    sys_ = load_system(systems_dir / "twisting.sys")
    traj = simulate(sys_, (1.0, 0.5), SimConfig(t_end=6.0))
    kinds = traj.event_kinds()
    assert kinds == ["crossing"] * 19 + ["converged"]
    exact = [(0.166667, "(1,4)"), (1.610042, "(3,4)"), (2.091168, "(2,3)"),
             (2.924501, "(1,2)"), (3.202279, "(1,4)"), (3.683404, "(3,4)")]
    for (t, _, detail), (t_exact, pair) in zip(traj.events, exact):
        assert abs(t - t_exact) < 1e-6 and detail == pair
    # the first crossing inside the ball of radius BALL_STOP, before the
    # Zeno time 4.71999 at which infinitely many switches end
    assert abs(traj.events[-1][0] - 4.68763) < 1e-5


def test_sliding_exit_by_alpha_logs_no_crossing():
    # chi = x2 - 1 with F_1 = (1, x1 - 1) above and F_2 = (1, 1) below: from
    # (-1, 1.5) the state reaches the line at t = 2 - sqrt(3), slides with
    # alpha = 1/(2 - x1) until x1 = 1 at t = 2, and leaves upwards.  The step
    # off the line is no crossing
    sys_ = parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2 - 1"], "witness": [0.0, 1.5]},
            {"id": 2, "chi": "0", "xi": ["1 - x2"], "witness": [0.0, 0.5]},
        ],
        "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2 - 1",
                        "witness": [0.0, 1.0]}],
        "dynamics": {"1": [["1", "x1 - 1"]], "2": [["1", "1"]]},
        "origin_regions": [],
    })
    traj = simulate(sys_, (-1.0, 1.5), SimConfig(t_end=2.5))
    assert [(kind, detail) for _, kind, detail in traj.events] == [
        ("crossing", "(1,2)"), ("sliding_entry", "(1,2)"),
        ("sliding_exit", "(1,2)"), ("t_end", "")]
    assert abs(traj.events[0][0] - (2 - math.sqrt(3))) < 1e-9
    assert abs(traj.events[2][0] - 2.0) <= 1e-3
    # past the exit, x2 = 1 + (x1 - 1)^2 / 2
    x1, x2 = traj.final_state
    assert traj.points[-1].mode == "smooth:1"
    assert abs(x2 - (1 + (x1 - 1) ** 2 / 2)) < 1e-5


def test_stratum_stop_at_higher_codimension(monkeypatch):
    # three regions meeting at a point with no pairwise selection rule
    sys_ = parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x1", "x2"], "witness": [1.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x1", "x2"], "witness": [-1.0, 1.0]},
            {"id": 3, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [
            {"i": 1, "j": 2, "chi_ij": "x1", "witness": [0.0, 1.0]},
            {"i": 1, "j": 3, "chi_ij": "x2", "witness": [1.0, 0.0]},
            {"i": 2, "j": 3, "chi_ij": "x2", "witness": [-1.0, 0.0]},
        ],
        "dynamics": {"1": [["-x1", "-x2"]], "2": [["-x1", "-x2"]],
                     "3": [["-x1", "-x2"]]},
        "origin_regions": [],
    })
    monkeypatch.setattr(sim, "BALL_STOP", 1e-15)
    traj = simulate(sys_, (0.0, 0.0 + 1e-12), SimConfig(step=1e-3, t_end=1.0))
    assert "stratum_stop" in traj.event_kinds()


# prints the events of a run of the system document argv[1] from argv[2]
_EVENTS_OF_RUN = """
import json, sys
from swsos.sim import SimConfig, simulate
from swsos.system import parse_system
traj = simulate(parse_system(json.loads(sys.argv[1])), json.loads(sys.argv[2]),
                SimConfig(step=1e-3, t_end=1.0))
print(json.dumps([traj.events, traj.points[-1].t]))
"""


@pytest.mark.parametrize("x1", [0.3, 0.4995, 0.5, 0.0005])
def test_sliding_tangency_before_a_step_does_not_loop(x1):
    # alpha is 1/2 all along x2 = 0 but at x1 = 1, where both normal
    # components vanish.  From (0.3, 0) a sliding step's last stage lands
    # on x1 = 1 at t = 0.699 and the kernel exits with tangency.  Sliding
    # again from there exits with no row, and the run must then leave by
    # the transversal rule: re-entering would repeat forever, so the run is
    # a subprocess with a timeout.  From 0.5 the run crosses at t = 0.501
    # and steps on to 0.501 + 499 * 1e-3 = 1 - 1.1e-16, within the kernels'
    # 1e-15 of t_end: its last row and event are at t_end all the same.
    doc = _two_sided_doc(["1", "-1 + x1"], ["1", "1 - x1"])
    src = os.path.dirname(os.path.dirname(sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _EVENTS_OF_RUN, json.dumps(doc),
         json.dumps([x1, 0.0])],
        capture_output=True, text=True, timeout=20, env=env, check=True)
    events, final_time = json.loads(proc.stdout)
    events = [tuple(e) for e in events]
    assert events[-1] == (1.0, "t_end", "") and final_time == 1.0
    assert all(a[:2] != b[:2] for a, b in zip(events, events[1:]))


@pytest.mark.parametrize("chi", ["x2", "-x2"])
def test_no_sliding_on_a_repelling_boundary(chi):
    # past x1 = 1, n.F_1 = -1 + x1 > 0 > n.F_2 = 1 - x1 for n = (0, 1), with
    # region 1 on the +n side: both fields point away from x2 = 0, so after
    # the crossing at t = 0.701 the run must not slide there.  chi = -x2
    # puts region 1 on the -n side, where the mirror inequalities apply.
    doc = _two_sided_doc(["1", "-1 + x1"], ["1", "1 - x1"])
    doc["boundaries"][0]["chi_ij"] = chi
    traj = simulate(parse_system(doc), (0.3, 0.0),
                    SimConfig(step=1e-3, t_end=1.0))
    crossing = [t for t, kind, _ in traj.events if kind == "crossing"]
    assert len(crossing) == 1 and abs(crossing[0] - 0.701) < 1e-3
    assert not [t for t, kind, _ in traj.events
                if kind == "sliding_entry" and t >= crossing[0]]
    assert traj.events[-1] == (1.0, "t_end", "")
    # the sliding stretch from t = 0 is attracting (x1 < 1) and stays
    assert traj.events[0] == (0.0, "sliding_entry", "(1,2)")


def _opposing_with_chi(systems_dir, chi):
    doc = json.loads((systems_dir / "opposing-fields.sys").read_text())
    doc["boundaries"][0]["chi_ij"] = chi
    return parse_system(doc)


def test_decide_projects_onto_a_variety_off_the_band(systems_dir):
    # both regions hold x2 = 5e-9 (their xi are within 1e-8), but
    # chi_ij = 100*x2 is 5e-7 there, off the sliding band: one Newton step
    # puts the state on the variety, where the fields slide with alpha 1/2
    sys_ = _opposing_with_chi(systems_dir, "100*x2")
    traj = simulate(sys_, (0.3, 5e-9), SimConfig(t_end=1.0))
    assert traj.event_kinds() == ["sliding_entry", "t_end"]
    assert traj.points[-1].t == 1.0
    alphas = [a for chunk in traj.chunks for a in chunk[3] or ()]
    assert len(alphas) == 1000 and set(alphas) == {0.5}


@pytest.mark.parametrize("x0", [
    (0.3, 0.0),       # zero gradient of chi_ij: no Newton step
    (0.3, 5e-9),      # the step lands at x2 = -100, far off the band
])
def test_decide_stops_when_the_variety_is_out_of_reach(systems_dir, x0):
    sys_ = _opposing_with_chi(systems_dir, "x2^2 + 1e-6")
    traj = simulate(sys_, x0, SimConfig(t_end=1.0))
    assert traj.event_kinds() == ["stratum_stop"]
    assert traj.events[0][2] == "(1,2) off its variety where both regions meet"
    assert traj.final_state.tolist() == list(x0)


def _four_corners_doc():
    # four regions meeting at (1, 1), each field (1, 1): from (0.5, 0.5)
    # the step that reaches the corner crosses x1 = 1 and x2 = 1 at once
    regions = {1: ["1 - x1", "1 - x2"], 2: ["x1 - 1", "1 - x2"],
               3: ["x1 - 1", "x2 - 1"], 4: ["1 - x1", "x2 - 1"]}
    witness = {1: [0.0, 0.0], 2: [1.5, 0.0], 3: [1.5, 1.5], 4: [0.0, 1.5]}
    return {
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [{"id": rid, "chi": "0", "xi": xi, "witness": witness[rid]}
                    for rid, xi in regions.items()],
        "boundaries": [{"i": i, "j": j, "chi_ij": chi}
                       for i, j, chi in [(1, 2, "x1 - 1"), (1, 4, "x2 - 1"),
                                         (2, 3, "x2 - 1"), (3, 4, "x1 - 1")]],
        "dynamics": {str(rid): [["1", "1"]] for rid in regions},
        "origin_regions": [],
    }


@pytest.mark.parametrize("doc, x0, detail, t, x", [
    ({**_two_sided_doc(["1", "0"], ["1", "0"]),
      "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2^2"}]},
     (0.3, 0.0), "singular boundary point of (1,2): zero normal", 0.0, (0.3, 0.0)),
    (_two_sided_doc(["1", "0"], ["1", "0"]),
     (0.3, 0.0), "degenerate crossing of (1,2)", 0.0, (0.3, 0.0)),
    ({**_two_sided_doc(["1", "0"], ["1", "0"]), "boundaries": []},
     (0.3, 0.0), "regions [1, 2] meet without a declared boundary", 0.0, (0.3, 0.0)),
    (_four_corners_doc(), (0.5, 0.5),
     "boundaries [(1, 2), (1, 4)] cross within event_tol of the same time",
     0.499, (0.999, 0.999)),
], ids=["zero-normal", "degenerate-crossing", "undeclared-boundary",
        "simultaneous-crossings"])
def test_stratum_stops(doc, x0, detail, t, x):
    traj = simulate(parse_system(doc), x0, SimConfig(step=1e-3, t_end=1.0))
    assert traj.events == [(pytest.approx(t, abs=1e-12), "stratum_stop", detail)]
    assert traj.final_state.tolist() == pytest.approx(x, abs=1e-12)
    assert traj.points[-1].mode == "stopped:stratum_stop"


@pytest.mark.parametrize("x0, detail", [
    ((0.0, 0.5), "sliding on (1,4) reached (1,2)"),
    ((0.5, 0.0), "sliding on (1,2) reached (1,4)"),
])
def test_sliding_stops_where_its_piece_of_boundary_ends(x0, detail):
    # fields (1, 1), (-1, 1), (-1, -1) and (1, -1) around the corner (1, 1):
    # the run reaches a side at t = 0.5, slides towards the corner at unit
    # speed and reaches it at t = 1.0, where the other side's variety ends
    # the piece between its two regions.  It must stop there, not slide on
    # past the corner with the two regions' fields until it escapes
    doc = _four_corners_doc()
    doc["dynamics"] = {"1": [["1", "1"]], "2": [["-1", "1"]],
                       "3": [["-1", "-1"]], "4": [["1", "-1"]]}
    traj = simulate(parse_system(doc), x0, SimConfig(step=1e-3, t_end=3.0))
    assert traj.event_kinds() == ["crossing", "sliding_entry", "stratum_stop"]
    assert traj.events[1][0] == pytest.approx(0.5, abs=1e-3)
    t, _, got = traj.events[-1]
    assert got == detail and t == pytest.approx(1.0, abs=2e-3)
    assert traj.final_state.tolist() == pytest.approx([1.0, 1.0], abs=2e-3)
    assert traj.points[-1].mode == "stopped:stratum_stop"


def _half_plane_doc(f1, f2, f3, chi13="x2"):
    # region 1 = {x2 >= 0} meets regions 2 = {x2 <= 0, x1 >= 0} and
    # 3 = {x2 <= 0, x1 <= 0} along the one variety x2 = 0, declared twice
    # (the second time as chi13)
    return {
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2", "x1"], "witness": [1.0, -1.0]},
            {"id": 3, "chi": "0", "xi": ["-x2", "-x1"], "witness": [-1.0, -1.0]},
        ],
        "boundaries": [{"i": i, "j": j, "chi_ij": chi, "witness": w}
                       for i, j, chi, w in [(1, 2, "x2", [1.0, 0.0]),
                                            (1, 3, chi13, [-1.0, 0.0]),
                                            (2, 3, "x1", [0.0, -1.0])]],
        "dynamics": {"1": [f1], "2": [f2], "3": [f3]},
        "origin_regions": [],
    }


_FALL = (["0", "-1"],) * 3
_PINCH = (["0.5", "-1"], ["0.5", "1"], ["0.5", "1"])


_SHARED_VARIETY_RUNS = [
    # (1,2) and (1,3) change sign together at t = 1: one crossing, into the
    # region that holds the crossing point, which carries the state down
    # to the box edge x2 = -2
    (_FALL, (0.5, 1.0), [("crossing", "(1,2)"), ("escaped", "")], 3.001),
    (_FALL, (-0.5, 1.0), [("crossing", "(1,3)"), ("escaped", "")], 3.001),
    # F_1 = (0.5, -1) and F_2 = F_3 = (0.5, 1) point at x2 = 0 from both
    # sides, so the state slides at speed 0.5: from (1, 0) out of the box,
    # and from (-1, 0) on (1,3), which watches x1 and not x2 again through
    # (1,2), into the ball around the origin
    (_PINCH, (0.5, 1.0), [("crossing", "(1,2)"), ("sliding_entry", "(1,2)"),
                          ("escaped", "")], 3.001),
    (_PINCH, (-1.5, 1.0), [("crossing", "(1,3)"), ("sliding_entry", "(1,3)"),
                           ("converged", "")], 3.0),
]


@pytest.mark.parametrize("fields, x0, events, t_stop", _SHARED_VARIETY_RUNS)
def test_a_variety_shared_by_two_boundaries(fields, x0, events, t_stop):
    doc = _half_plane_doc(*fields)
    traj = simulate(parse_system(doc), x0, SimConfig(step=1e-3, t_end=5.0))
    assert [(kind, detail) for _, kind, detail in traj.events] == events
    assert traj.events[0][0] == pytest.approx(1.0, abs=1e-9)
    assert traj.events[-1][0] == pytest.approx(t_stop, abs=1e-9)


@pytest.mark.parametrize("fields, x0, events, t_stop", _SHARED_VARIETY_RUNS)
def test_a_variety_declared_as_chi_and_minus_chi(fields, x0, events, t_stop):
    # (1,3) on -x2 is the variety of (1,2) on x2: the same events at the
    # same times as when both declare x2
    same = simulate(parse_system(_half_plane_doc(*fields)), x0,
                    SimConfig(step=1e-3, t_end=5.0))
    traj = simulate(parse_system(_half_plane_doc(*fields, chi13="-x2")), x0,
                    SimConfig(step=1e-3, t_end=5.0))
    assert [(kind, detail) for _, kind, detail in traj.events] == events
    assert [t for t, _, _ in traj.events] == [t for t, _, _ in same.events]
    assert traj.events[-1][0] == pytest.approx(t_stop, abs=1e-9)


def _watched(monkeypatch, doc, x0):
    """The run from x0, and the varieties each sliding and each smooth
    kernel it builds watches, in the order it builds them."""
    sliding, smooth = [], []
    build_sliding, build_smooth = _kernels.sliding_kernel, _kernels.smooth_kernel

    def record_sliding(grad, fi, fj, chi, *others):
        sliding.append(others)
        return build_sliding(grad, fi, fj, chi, *others)

    def record_smooth(fields, chis):
        smooth.append(chis)
        return build_smooth(fields, chis)

    monkeypatch.setattr(_kernels, "sliding_kernel", record_sliding)
    monkeypatch.setattr(_kernels, "smooth_kernel", record_smooth)
    traj = simulate(parse_system(doc), x0, SimConfig(step=1e-3, t_end=5.0))
    return traj, sliding, smooth


def _chi(text):
    return parse_polynomial(text, 2)._term_list()


def test_sliding_kernel_watches_each_other_variety_once(monkeypatch):
    # sliding on (1,4) of the four corners: (1,2) and (3,4) both lie on
    # x1 = 1, which the kernel evaluates once, and the stop names (1,2)
    doc = _four_corners_doc()
    doc["dynamics"] = {"1": [["1", "1"]], "2": [["-1", "1"]],
                       "3": [["-1", "-1"]], "4": [["1", "-1"]]}
    traj, sliding, _ = _watched(monkeypatch, doc, (0.0, 0.5))
    assert traj.events[-1][2] == "sliding on (1,4) reached (1,2)"
    assert sliding == [(_chi("x1 - 1"),)]


def test_sliding_kernel_never_watches_its_own_variety(monkeypatch):
    # sliding on (1,2) of the half-plane system: (1,3) continues x2 = 0,
    # so only (2,3)'s x1 is watched; region 1's smooth kernel watches x2 once
    traj, sliding, smooth = _watched(monkeypatch, _half_plane_doc(*_PINCH),
                                     (0.5, 1.0))
    assert traj.event_kinds() == ["crossing", "sliding_entry", "escaped"]
    assert sliding == [(_chi("x1"),)]
    assert smooth == [(_chi("x2"),)]


def test_sliding_kernel_never_watches_its_own_variety_declared_negated(monkeypatch):
    # sliding on (1,3), declared on -x2, of the half-plane system: (1,2)'s
    # x2 is its own variety, so only (2,3)'s x1 is watched, and region 1's
    # smooth kernel watches x2 once
    traj, sliding, smooth = _watched(
        monkeypatch, _half_plane_doc(*_PINCH, chi13="-x2"), (-1.5, 1.0))
    assert traj.event_kinds() == ["crossing", "sliding_entry", "converged"]
    assert sliding == [(_chi("x1"),)]
    assert smooth == [(_chi("x2"),)]


def test_write_trajectory_format(tmp_path, opposing_system):
    traj = simulate(opposing_system, (0.0, 0.5), SimConfig(step=1e-3, t_end=1.0))
    out = tmp_path / "t.tsv"
    with open(out, "w") as fh:
        write_trajectory(traj, fh, manifest_hash="abc123")
    lines = out.read_text().splitlines()
    assert lines[0] == "# manifest abc123"
    assert lines[1].split("\t")[:3] == ["t", "x1", "x2"]
    assert "# events" in "\n".join(lines)


@pytest.mark.parametrize("rid, theta, x", [
    (1, (0.5, 0.5), (0.0, 1.3)),
    (1, (0.0, 1.0), (0.7, 0.0)),
    (2, (1.0,), (-1.2, 0.0)),
    (1, (1.0, 0.0), (0.0, 0.0)),        # at the origin: no ball stop
])
def test_nudge_step_is_one_rk4_step(quadrant_system, rid, theta, x):
    # a kernel run whose t_end is one step away takes one RK4 step, with no
    # ball stop (ball_stop -1) and no event from a start on x1*x2 = 0
    F = quadrant_system.field_at(rid, theta)
    kernel = _kernels.smooth_kernel(
        [p._term_list() for p in F],
        [b.chi._term_list() for b in quadrant_system.boundaries])
    lo, hi = (v.tolist() for v in quadrant_system.box)
    h = 1e-3
    flat = kernel(list(x), 0.0, h * 1e-3, h * 1e-3, -1.0, lo, hi, 1e-9)[0]
    assert np.array_equal(np.array(flat[-2:]), _rk4_step(F, x, h * 1e-3))


def test_nudge_step_row_is_last_on_escape():
    # F = (1, -1) from the box edge x1 = 2: the one stepped state escapes
    # and is the last row
    sys_ = _two_sided(["1", "-1"], ["1", "1"])
    F = sys_.field_at(1, (1.0,))
    kernel = _kernels.smooth_kernel([p._term_list() for p in F],
                                    [b.chi._term_list() for b in sys_.boundaries])
    flat, _, _, code = kernel([2.0, 0.0], 0.0, 1e-3, 1e-3, -1.0, [-2.0, -2.0],
                              [2.0, 2.0], 1e-9)
    assert code == _kernels.STOP_ESCAPED
    assert np.array_equal(np.array(flat[-2:]), _rk4_step(F, (2.0, 0.0), 1e-3))


def _per_row_writer(traj, fh, manifest_hash=""):
    # the one-f-string-per-value writer write_trajectory replaced
    if manifest_hash:
        fh.write(f"# manifest {manifest_hash}\n")
    dim = len(traj.points[0].x) if traj.points else 0
    cols = ["t"] + [f"x{k + 1}" for k in range(dim)] + ["mode", "alpha", "psi"]
    fh.write("\t".join(cols) + "\n")
    for p in traj.points:
        row = [f"{p.t:.9g}"] + [f"{v:.12g}" for v in p.x] + [
            p.mode,
            "" if p.alpha is None else f"{p.alpha:.9g}",
            "" if p.psi is None else f"{p.psi:.12g}",
        ]
        fh.write("\t".join(row) + "\n")
    fh.write("\n# events\n# t\tkind\tdetail\n")
    for (t, kind, detail) in traj.events:
        fh.write(f"{t:.9g}\t{kind}\t{detail}\n")


def _chunk_rows(traj):
    return [(t, x, mode, None if alphas is None else alphas[k],
             None if psi is None else psi[k])
            for times, states, mode, alphas, psi in traj.chunks
            for k, (t, x) in enumerate(zip(times, states))]


def test_write_trajectory_matches_per_row_writer(quadrant_system,
                                                 published_lyapunov,
                                                 opposing_system):
    # smooth points (psi, no alpha), sliding points (alpha and psi) and the
    # stopped point (neither); sliding points without psi; the one-row
    # crossing chunk of the run from (0.3, -2), which then slides to t_end
    from swsos.cli import _theta_table
    v = parse_polynomial("x1^2 + 3*x2^2 + 0.1*x1*x2", 2)
    traj = simulate(_two_sided(["-x1", "-1"], ["-x1", "1"]), (1.0, 0.5),
                    SimConfig(step=1e-3, t_end=20.0), certificate={1: v, 2: v})
    modes = {p.mode.split(":")[0] for p in traj.points}
    assert modes == {"smooth", "sliding", "stopped"}
    assert any(p.alpha is None and p.psi is not None for p in traj.points)
    assert traj.points[-1].alpha is None and traj.points[-1].psi is None
    bare = simulate(opposing_system, (0.0, 0.5), SimConfig(t_end=1.0))
    assert any(p.alpha is not None and p.psi is None for p in bare.points)
    chatter = simulate(quadrant_system, (0.3, -2.0),
                       SimConfig(t_end=2.0,
                                 theta=_theta_table(quadrant_system, (1.0, 0.0))),
                       certificate=published_lyapunov)
    crossings = [c for c in chatter.chunks
                 if len(c[0]) == 1 and c[2].startswith("smooth:")]
    assert len(crossings) == chatter.event_kinds().count("crossing") == 1
    for t in (traj, bare, chatter):
        rows = _chunk_rows(t)
        assert len(t.points) == len(rows) == t.count
        for p, (time, x, mode, alpha, psi) in zip(t.points, rows):
            assert (p.t, p.mode, p.alpha, p.psi) == (time, mode, alpha, psi)
            assert np.array_equal(p.x, x)
    for t, manifest in ((traj, ""), (traj, "abc123"), (Trajectory(), ""),
                        (bare, ""), (chatter, "abc123")):
        got, ref = io.StringIO(), io.StringIO()
        write_trajectory(t, got, manifest_hash=manifest)
        _per_row_writer(t, ref, manifest_hash=manifest)
        assert got.getvalue() == ref.getvalue()


def _per_row_percent_writer(traj, fh):
    # the one-% per row writer that write_trajectory replaced: one template
    # per chunk, applied to each row of the chunk's columns
    dim = traj.chunks[0][1].shape[1] if traj.chunks else 0
    cols = ["t"] + [f"x{k + 1}" for k in range(dim)] + ["mode", "alpha", "psi"]
    fh.write("\t".join(cols) + "\n")
    for times, states, mode, alphas, psi in traj.chunks:
        row = ("%.9g\t" + "%.12g\t" * dim + mode.replace("%", "%%")
               + ("\t%.9g\t" if alphas is not None else "\t\t")
               + ("%.12g\n" if psi is not None else "\n"))
        columns = [times, *states.T.tolist()]
        columns += [c for c in (alphas, psi) if c is not None]
        for values in zip(*columns):
            fh.write(row % values)
    fh.write("\n# events\n# t\tkind\tdetail\n")
    for (t, kind, detail) in traj.events:
        fh.write(f"{t:.9g}\t{kind}\t{detail}\n")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_write_trajectory_matches_per_row_percent_writer(dim):
    # chunks with and without alpha and psi, one-row chunks, a % in a mode
    # and values that print in every %g form: the one % per chunk writes
    # the bytes of one % per row
    rng = np.random.default_rng(dim)

    def column(m):
        return (rng.normal(size=m) * 10.0 ** rng.integers(-12, 12, size=m)).tolist()

    traj = Trajectory()
    t = 0.0
    for k, (m, alpha, psi, mode) in enumerate([
            (40, False, True, "smooth:1"), (1, False, True, "smooth:1"),
            (25, True, True, "sliding:1,2"), (17, True, False, "sliding:1,2"),
            (1, True, False, "sliding:1,2"), (3, False, False, "mode 100%s %d"),
            (1, False, False, "stopped:t_end")]):
        times = (t + np.cumsum(rng.uniform(0.0, 1e-3, size=m))).tolist()
        t = times[-1]
        traj.add(times, rng.normal(size=(m, dim)) * 1e3 ** k, mode,
                 column(m) if alpha else None, column(m) if psi else None)
        traj.events.append((t, "crossing", f"({k},{k + 1})"))
    traj.chunks[2][1][0] = [np.inf, -0.0, np.nan][:dim]
    # columns that hold one value on every row: x_k, alpha and psi constant;
    # a column of 0.0 with one -0.0 inside, one with -0.0 last and one with
    # -0.0 first; all-nan (with a -nan) and all-inf columns; columns equal
    # at both ends only; two- and one-row chunks; a % in a mode between
    # constant columns
    zeros = [0.0] * 9
    for mode, xs, alphas, psi in [
            ("sliding:1,2", [[0.25] * 30] * dim, [0.5] * 30, [7.0] * 30),
            ("sliding:1,2", [zeros[:4] + [-0.0] + zeros[5:]] + [zeros] * (dim - 1),
             zeros[:-1] + [-0.0], [-0.0] + zeros[1:]),
            ("smooth:2", [[np.nan] * 5] + [[np.inf] * 5] * (dim - 1),
             [np.nan, -np.nan, np.nan, np.nan, np.nan], [-np.inf] * 5),
            ("sliding:1,2", [[1.5, 2.5, 1.5]] * dim, [0.5, 0.25, 0.5],
             [3.0, 3.0 + 1e-12, 3.0]),
            ("sliding:1,2", [[3.0, 3.0]] * dim, [1.0, 1.0], [2.0, 2.0]),
            ("sliding:1,2", [[3.0, 4.0]] * dim, [1.0, 0.0], None),
            ("sliding:1,2", [[-2.0]] * dim, [0.0], [1.0]),
            ("mode 100% %s", [[0.125] * 4] * dim, [0.75] * 4, None),
            ("%d%%", [[1e300] * 3] * dim, None, [5e-324] * 3)]:
        m = len(xs[0])
        times = (t + np.cumsum(rng.uniform(0.0, 1e-3, size=m))).tolist()
        t = times[-1]
        traj.add(times, np.array(xs, dtype=float).T, mode, alphas, psi)
        traj.events.append((t, "crossing", "(1,2)"))
    for t in (traj, Trajectory()):
        got, ref = io.StringIO(), io.StringIO()
        write_trajectory(t, got)
        _per_row_percent_writer(t, ref)
        assert got.getvalue() == ref.getvalue()


def _one_text_by_pack(column):
    # the constant-column test _one_text replaced, on a list of floats (the
    # writer ran it on states.T.tolist()): ends first, then every value
    # packed against the first's bytes
    first, last = column[0], column[-1]
    if not (last == first or (first != first and last != last)):
        return False
    m = len(column)
    return struct.pack(f"{m}d", *column) == struct.pack("d", first) * m


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_one_text_matches_the_packed_bytes_rule():
    # each column as a list, as a strided row of states.T and as a
    # contiguous array: _one_text reads it as the packed-bytes rule does
    nan, other_nan = _float_of_bits(0x7FF8000000000000), _float_of_bits(0x7FF8000000000001)
    assert math.isnan(other_nan) and struct.pack("d", nan) != struct.pack("d", other_nan)
    inf = math.inf
    columns = [
        [0.25] * 7, [0.0] * 5, [-0.0] * 3, [0.0, 0.0, -0.0, 0.0],
        [-0.0, 0.0, 0.0], [0.0, 0.0, -0.0], [nan] * 4, [other_nan] * 3,
        [nan, other_nan, nan], [nan, nan, other_nan], [inf] * 3, [-inf] * 2,
        [inf, -inf], [inf, 1e308, inf], [1.5, 2.5, 1.5], [1.0, 2.0],
        [5e-324, 5e-324], [5e-324, -5e-324],
        # one-row chunks
        [1.0], [-0.0], [nan], [other_nan], [inf],
    ]
    for column in columns:
        want = _one_text_by_pack(column)
        states = np.zeros((len(column), 3))
        states[:, 1] = column
        strided = states.T[1]
        assert not strided.flags.c_contiguous or len(column) == 1
        assert strided.tobytes() == struct.pack(f"{len(column)}d", *column)
        for form in (column, strided, np.array(column)):
            assert sim._one_text(form) is want, (column, type(form))
    # the cases read both ways
    assert not sim._one_text([0.0, 0.0, -0.0, 0.0])
    assert not sim._one_text(np.array([nan, other_nan, nan]))
    assert sim._one_text(np.array([other_nan] * 3))


# sha256 of each corpus run's TSV (tests/trajectory_corpus.py); a change
# that alters trajectories on purpose prints the new ones with that module
PINNED_DIGESTS = {
    'sweep 2,2 theta0': '3cf16e9f76f0d47e8340075e69e54b7c6c16be8b3683b9ed0ceae5a56af7f7d6',
    'sweep 2,2 theta0.5': 'c8c2be2468c6303abcc89fd35228e3884b28419798efbe974815febcf29578d3',
    'sweep 2,2 theta1': 'a750169aa149629bd3f7b352af21eed83482181fb0ed6892f92bc458c6a0091d',
    'sweep -2,2 theta0': '17b051db3f2d470a92c748b2fdc37d73785c2a55377b20ca36ed1ea5dc18e4b8',
    'sweep -2,2 theta0.5': '8fa63b026ec78e275c2a3e4db37009e924e9f85bc85658d266a1ba4141640ecd',
    'sweep -2,2 theta1': 'e264f5389113eefaad39ccc930229bf28b9d7e2e7db5e8b69f9116a81c3a94b7',
    'sweep -2,-2 theta0': '83357e94d519f8e39b3541328b0f76fb4ec1d1f3959847ab218d1a904cdfc459',
    'sweep -2,-2 theta0.5': 'a76f0b9b42791e53639f5c46eba938153cfe382064eaa7e4db5e8f1e17af22f3',
    'sweep -2,-2 theta1': '80a24d622e2db4e125002c34d978a6b4d371d21409e43ef4f51381610651ed60',
    'sweep 2,-2 theta0': '0677ca292cf856eec3b8e20daa312bbc2591dad8feb4a447d5cec097ee4219aa',
    'sweep 2,-2 theta0.5': 'a9f190cc7eee850152ed83de4fd7ab2f936a4264c11de990deaead497a6ea9b5',
    'sweep 2,-2 theta1': 'fd18c80711852dfdd7817ad298c047125eb6fb07ce0abe4571de808dd4107e26',
    'sweep 0.3,-2 theta0': '9f7ccb5ec8e4cad2bf3e40da791b232832361a6fe90e9fcdf7c7cdc767029c2a',
    'sweep 0.3,-2 theta0.5': 'dadea60296878a510c3230a8530809a6bf5fc8b90a5881017371b3e181fabab9',
    'sweep 0.3,-2 theta1': 'ac4f608d812c1984d9b809f2653373f8f6faf74b3a329a5aeab32034dc2f5c7b',
    'sliding 0,0.5 t_end1': '47cc5f0101f9106c7580ef5e67170bc290feca2da8ec42be9c336433dbc0c0f6',
    'sliding 0.37,0.81 t_end2.81': '9ef541f8b2bf4cc4689c2f8cc88611deabfeaaf327b9bc016eaf28ac677890e0',
    'tilted-relay -0.8,-0.3 t_end3': 'fe1b444ef0686e4aee6f4e8c5914f66e6b244bb6a357d422f5a4d834907e1b32',
    'tilted-relay 0.9,-1.3 t_end4': 'afd54048e038fc8b20180db9bd32de78e8f137f27b8f54dfcc791c87d2ae6467',
    'branicky-a 0.05,0.05 t_end5': 'b87be4f28e0afb199e2ad4705df727000b0eaea17545111fd43bab9c82ed807e',
}


def test_trajectory_bytes_are_pinned():
    assert digests() == PINNED_DIGESTS


def _printed_rows(tsv):
    """(t, mode) of each row of a TSV with no manifest line, t as printed."""
    rows = [r.split("\t") for r in tsv.split("\n\n# events")[0].splitlines()[1:]]
    return [(float(r[0]), r[-3]) for r in rows]


def test_corpus_row_times_strictly_increase():
    # a smooth or sliding row prints a later time than the row before it; a
    # stopped row may repeat the time of the state it stopped at, as the
    # converged branicky-a run's does
    for name, tsv in tsvs().items():
        rows = _printed_rows(tsv)
        for (t_prev, _), (t, mode) in zip(rows, rows[1:]):
            assert t > t_prev or (t == t_prev and mode.startswith("stopped:")), \
                (name, t, mode)


def test_sliding_run_to_t_end_prints_t_end_once(opposing_system):
    # sliding from (0.3, 0.5) to t_end = 2.5: steps end on t0 + i*h, so
    # the last step is a whole one that ends on 2.5, not a 1.6e-13 s sliver
    # after a row that already prints as 2.5
    buf = io.StringIO()
    write_trajectory(simulate(opposing_system, (0.3, 0.5),
                              SimConfig(t_end=2.5)), buf)
    times = [t for t, _ in _printed_rows(buf.getvalue())]
    assert len(times) == 2500
    assert times[-3:] == [2.498, 2.499, 2.5]
    assert times.count(2.5) == 1


def test_theta_key_naming_no_region_is_refused(quadrant_system):
    # 9 is no region id, and the string "1" is not the region id 1: before,
    # both were ignored and the run went at the default theta
    cfg = SimConfig(t_end=0.01, theta={9: (0.5, 0.5), "1": (0.0, 1.0)})
    with pytest.raises(ValueError, match="theta key 9 names no region"):
        simulate(quadrant_system, (1.0, 1.0), cfg)
    with pytest.raises(ValueError, match="theta key '1' names no region"):
        simulate(quadrant_system, (1.0, 1.0),
                 SimConfig(t_end=0.01, theta={"1": (0.0, 1.0)}))


@pytest.mark.parametrize("x0", [(1.0, 1.0), (1.0, -1.0)])
def test_theta_of_wrong_length_is_refused_before_the_run(quadrant_system, x0):
    # region 2 has one vertex: before, (0.5, 0.5) was accepted from (1, 1),
    # which never enters region 2, and raised mid-run from (1, -1)
    cfg = SimConfig(t_end=0.01, theta={2: (0.5, 0.5)})
    with pytest.raises(ValueError,
                       match="theta for region 2: theta must have length 1"):
        simulate(quadrant_system, x0, cfg)
