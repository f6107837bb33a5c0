"""The trajectory corpus whose TSV bytes tests/test_sim.py pins.

The five perfbench `sweep` starts at theta 0, 0.5 and 1 to t = 2 with the
published certificate (the start (0.3, -2), which slides along x2 = 0 at
theta 1, included), two Filippov sliding runs on opposing-fields.sys
(constant fields and normal), two on tilted-relay.sys (a constant normal
between non-constant fields; the second run slides until it leaves the
box) and the branicky-a.sys run from (0.05, 0.05), whose six crossings of
x1*x2 = 0 close in on the origin, where the gradient of chi vanishes.
Each run is
written by write_trajectory with an empty manifest hash (`tsvs`) and
digested with sha256 (`digests`).
A change that alters trajectories on purpose prints the new digests with

    PYTHONPATH=src python tests/trajectory_corpus.py

and pastes them into PINNED_DIGESTS in tests/test_sim.py.
"""
from __future__ import annotations

import hashlib
import io
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

SWEEP_STARTS = ((2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0), (0.3, -2.0))
SWEEP_THETAS = (0.0, 0.5, 1.0)
SWEEP_T_END = 2.0
SLIDING_RUNS = (((0.0, 0.5), 1.0), ((0.37, 0.81), 2.81))   # (x0, t_end)
TILTED_RUNS = (((-0.8, -0.3), 3.0), ((0.9, -1.3), 4.0))
BRANICKY_RUNS = (((0.05, 0.05), 5.0),)


def tsvs() -> dict:
    """Run name -> its TSV."""
    from swsos.cli import _theta_table, load_lyapunov
    from swsos.sim import SimConfig, simulate, write_trajectory
    from swsos.system import load_system

    def tsv(traj):
        buf = io.StringIO()
        write_trajectory(traj, buf, manifest_hash="")
        return buf.getvalue()

    quadrant = load_system(SYSTEMS / "quadrant-cubic.sys")
    certificate = load_lyapunov(str(SYSTEMS / "quadrant-cubic-V-stripped.lyap"),
                                quadrant)
    out = {}
    for x0 in SWEEP_STARTS:
        for v in SWEEP_THETAS:
            cfg = SimConfig(t_end=SWEEP_T_END, theta=_theta_table(quadrant, (v, 1.0 - v)))
            out[f"sweep {x0[0]:g},{x0[1]:g} theta{v:g}"] = tsv(
                simulate(quadrant, x0, cfg, certificate=certificate))
    for name, prefix, runs in (("opposing-fields", "sliding", SLIDING_RUNS),
                               ("tilted-relay", "tilted-relay", TILTED_RUNS),
                               ("branicky-a", "branicky-a", BRANICKY_RUNS)):
        system = load_system(SYSTEMS / f"{name}.sys")
        for x0, t_end in runs:
            out[f"{prefix} {x0[0]:g},{x0[1]:g} t_end{t_end:g}"] = tsv(
                simulate(system, x0, SimConfig(t_end=t_end)))
    return out


def digests() -> dict:
    """Run name -> sha256 hex digest of its TSV."""
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in tsvs().items()}


if __name__ == "__main__":
    for name, hexdigest in digests().items():
        print(f"    {name!r}: {hexdigest!r},")
