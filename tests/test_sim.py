import numpy as np
import pytest

from swsos import _kernels
from swsos.poly import parse_polynomial
from swsos.sim import (SimConfig, StratumStop, Tangency, Trajectory,
                       _rk4_step, detect_crossing, simulate, sliding_weight,
                       step_smooth, write_trajectory)
from swsos.system import parse_system


def _scalar_decay():
    return parse_system({
        "dimension": 1,
        "box": [[-2.0, 2.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [1.0]}],
        "boundaries": [],
        "dynamics": {"1": [["-x1"]]},
        "origin_regions": [1],
    })


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(step=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)


def test_step_smooth_rk4_accuracy():
    # exact flow of xdot = -x from 1 over t=1 is e^-1
    sys_ = _scalar_decay()
    x = np.array([1.0])
    for _ in range(10):
        x = step_smooth(sys_, 1, x, 0.1, (1.0,))
    assert abs(x[0] - np.exp(-1.0)) < 1e-6


def test_step_smooth_zero_field_fixed_point():
    sys_ = parse_system({
        "dimension": 1, "box": [[-1.0, 1.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [0.5]}],
        "boundaries": [], "dynamics": {"1": [["0"]]}, "origin_regions": [],
    })
    x = step_smooth(sys_, 1, np.array([0.3]), 0.5, (1.0,))
    assert x[0] == 0.3


def test_detect_crossing_linear(opposing_system):
    # straight-line interpolation: chi = x2 crosses at s = 0.5
    hit = detect_crossing(opposing_system, (0.0, 0.1), (0.0, -0.1))
    assert hit is not None
    b, s, xc = hit
    assert b.pair == (1, 2)
    assert abs(s - 0.5) < 1e-9
    assert abs(xc[1]) < 1e-9


def test_detect_crossing_none_without_sign_change(opposing_system):
    assert detect_crossing(opposing_system, (0.0, 0.2), (0.0, 0.1)) is None


def test_detect_crossing_rejects_nonfinite(opposing_system):
    with pytest.raises(ValueError):
        detect_crossing(opposing_system, (0.0, np.nan), (0.0, -0.1))


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
    # converged event at t ~= ln(1/ball_stop) = ln(1e4) ~= 9.21, within 1%
    traj = simulate(_scalar_decay(), (1.0,), SimConfig(step=1e-3))
    assert traj.converged()
    t_conv = [t for t, kind, _ in traj.events if kind == "converged"][0]
    assert abs(t_conv - np.log(1e4)) / np.log(1e4) < 0.01


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
    assert not traj.converged()


def _two_sided(f1, f2):
    # x2 >= 0 runs F_1, x2 <= 0 runs F_2, boundary x2 = 0
    return parse_system({
        "dimension": 2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "regions": [
            {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
            {"id": 2, "chi": "0", "xi": ["-x2"], "witness": [0.0, -1.0]},
        ],
        "boundaries": [{"i": 1, "j": 2, "chi_ij": "x2", "witness": [1.0, 0.0]}],
        "dynamics": {"1": [f1], "2": [f2]},
        "origin_regions": [1, 2],
    })


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
    # at theta = 1 the run from (0.3, -2) chatters across x1*x2 = 0: the
    # guard halves the step, then enters sliding [chattering]; each sliding
    # stretch ends when alpha leaves [0, 1]
    from swsos.cli import _theta_table
    cfg = SimConfig(t_end=2.0, theta=_theta_table(quadrant_system, 1.0))
    traj = simulate(quadrant_system, (0.3, -2.0), cfg)
    kinds = traj.event_kinds()
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "crossing": 401, "step_halved": 21, "sliding_entry": 7,
        "sliding_exit": 7, "t_end": 1}
    assert any(kind == "sliding_entry" and detail.endswith("[chattering]")
               for _, kind, detail in traj.events)


def test_stratum_stop_at_higher_codimension():
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
    traj = simulate(sys_, (0.0, 0.0 + 1e-12), SimConfig(step=1e-3, t_end=1.0,
                                                        ball_stop=1e-15))
    assert "stratum_stop" in traj.event_kinds()


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
    # simulate nudges off x1*x2 = 0 with one step of the region's kernel
    F = quadrant_system.field_at(rid, theta)
    kernel = _kernels.smooth_kernel(
        [p._term_list() for p in F],
        [b.chi._term_list() for b in quadrant_system.boundaries])
    lo, hi = (v.tolist() for v in quadrant_system.box)
    h = 1e-3
    flat = kernel(list(x), h * 1e-3, 1, -1.0, lo, hi, 1e-9)[0]
    assert np.array_equal(np.array(flat[-2:]), _rk4_step(F, x, h * 1e-3))


def test_nudge_step_row_is_last_on_escape():
    # F = (1, -1) from the box edge x1 = 2: the stepped state escapes
    sys_ = _two_sided(["1", "-1"], ["1", "1"])
    F = sys_.field_at(1, (1.0,))
    kernel = _kernels.smooth_kernel([p._term_list() for p in F],
                                    [b.chi._term_list() for b in sys_.boundaries])
    flat, code, _ = kernel([2.0, 0.0], 1e-3, 1, -1.0, [-2.0, -2.0], [2.0, 2.0],
                           1e-9)
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


def test_write_trajectory_matches_per_row_writer():
    # smooth points (psi, no alpha), sliding points (alpha and psi) and the
    # stopped point (neither)
    import io
    v = parse_polynomial("x1^2 + 3*x2^2 + 0.1*x1*x2", 2)
    traj = simulate(_two_sided(["-x1", "-1"], ["-x1", "1"]), (1.0, 0.5),
                    SimConfig(step=1e-3, t_end=20.0), certificate={1: v, 2: v})
    modes = {p.mode.split(":")[0] for p in traj.points}
    assert modes == {"smooth", "sliding", "stopped"}
    assert any(p.alpha is None and p.psi is not None for p in traj.points)
    assert traj.points[-1].alpha is None and traj.points[-1].psi is None
    for t, manifest in ((traj, ""), (traj, "abc123"), (Trajectory(), "")):
        got, ref = io.StringIO(), io.StringIO()
        write_trajectory(t, got, manifest_hash=manifest)
        _per_row_writer(t, ref, manifest_hash=manifest)
        assert got.getvalue() == ref.getvalue()
