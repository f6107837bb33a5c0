import numpy as np
import pytest

from swsos.sim import (SimConfig, StratumStop, Tangency, detect_crossing,
                       simulate, sliding_weight, step_smooth,
                       write_trajectory)
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
