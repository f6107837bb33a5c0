"""Output checks for the benchmark workloads.

Every function returns a list of problems; an empty list means the output
is correct.  They take plain data (exit codes, text, parsed rows, sizes)
so that the self-tests in test_checks.py can feed them wrong outputs
without running swsos.
"""
from __future__ import annotations

import math
from typing import NamedTuple

EXIT_OK = 0
EXIT_VIOLATED = 4

# Sizes of the joint feasibility problem for quadrant-cubic.sys with cross
# conditions on both orders of its boundary, as assembled at the commit
# that added this benchmark: degree -> (equality rows, largest PSD block,
# free scalars).  Every degree has 29 PSD blocks.  Later changes may shrink
# these (basis pruning, a sparse problem form), never grow them.
ASSEMBLE_LIMITS = {
    4: (198, 9, 79),
    6: (339, 14, 153),
    8: (516, 20, 251),
    10: (729, 27, 373),
}
ASSEMBLE_MAX_BLOCKS = 29

PSI_RISE_TOL = 1e-6          # criterion 4: psi_next <= psi + 1e-6*(1 + psi)
SLIDING_X1_TOL = 1e-3        # criterion 6 bounds
SLIDING_ALPHA_TOL = 1e-6


class Row(NamedTuple):
    t: float
    x: tuple
    mode: str
    alpha: float | None
    psi: float | None


def _opt_float(text: str):
    return float(text) if text else None


def parse_trajectory(text: str):
    """Parse a trajectory TSV written by `swsos simulate`.

    Returns (rows, events) with events as (t, kind, detail) tuples.
    """
    rows, events = [], []
    in_events = False
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# events"):
            in_events = True
            continue
        if line.startswith("#") or line.startswith("t\t"):
            continue
        f = line.split("\t")
        if in_events:
            events.append((float(f[0]), f[1], f[2] if len(f) > 2 else ""))
        else:
            dim = len(f) - 4
            rows.append(Row(float(f[0]), tuple(float(v) for v in f[1:1 + dim]),
                            f[1 + dim], _opt_float(f[2 + dim]),
                            _opt_float(f[3 + dim])))
    return rows, events


def region_of(mode: str):
    """Region whose Lyapunov piece applies to a row, or None when stopped.

    "smooth:<rid>" uses rid; "sliding:<i>,<j>" uses i, as the simulator does.
    """
    kind, _, rest = mode.partition(":")
    if kind not in ("smooth", "sliding"):
        return None
    return int(rest.split(",")[0])


def check_verify(perturbed: bool, rc: int, stdout: str) -> list:
    if perturbed:
        if rc != EXIT_VIOLATED:
            return [f"perturbed family: exit {rc}, expected {EXIT_VIOLATED}"]
        return []
    problems = []
    if rc != EXIT_OK:
        problems.append(f"published family: exit {rc}, expected {EXIT_OK}")
    if "verdict: no-violation-found" not in stdout:
        problems.append("published family: verdict is not no-violation-found")
    return problems


def check_sweep_run(rows, events, x0, psi) -> list:
    """One trajectory of the theta-sweep.

    psi: certificate values recomputed at each row (None for stopped rows),
    so the rule judges the certificate, not the psi column the integrator
    wrote.
    """
    if not rows:
        return ["empty trajectory"]
    problems = []
    if any(kind == "escaped" for _, kind, _ in events) or \
            any(r.mode == "stopped:escaped" for r in rows):
        problems.append("trajectory escaped")
    start, final = math.hypot(*x0), math.hypot(*rows[-1].x)
    if not final < start:
        problems.append(f"final norm {final:.6g} not below start norm {start:.6g}")
    values = [v for v in psi if v is not None]
    rises = sum(1 for a, b in zip(values, values[1:])
                if b > a + PSI_RISE_TOL * (1.0 + a))
    if rises:
        problems.append(f"psi rises {rises} times")
    return problems


def check_sliding(rows, events, a: float, y0: float, t_end: float,
                  step: float) -> list:
    """Opposing fields from (a, y0): fall onto x2 = 0 at t = y0, then slide
    with zero velocity at x1 = a + y0 with alpha = 1/2."""
    if not rows:
        return ["empty trajectory"]
    problems = []
    entries = [t for t, kind, _ in events if kind == "sliding_entry"]
    if len(entries) != 1:
        problems.append(f"{len(entries)} sliding entries, expected 1")
    elif abs(entries[0] - y0) > step:
        problems.append(f"sliding entry at t={entries[0]:.6g}, expected {y0:.6g}")
    if abs(rows[-1].t - t_end) > 1e-9:
        problems.append(f"final time {rows[-1].t:.9g}, expected {t_end:.9g}")
    x1 = rows[-1].x[0]
    if abs(x1 - (a + y0)) > SLIDING_X1_TOL:
        problems.append(f"x1(t_end)={x1:.9g}, expected {a + y0:.9g}")
    alphas = [r.alpha for r in rows if r.alpha is not None]
    if not alphas:
        problems.append("no sliding points")
    elif max(abs(al - 0.5) for al in alphas) > SLIDING_ALPHA_TOL:
        problems.append("alpha differs from 1/2")
    return problems


def check_assemble(sizes: dict) -> list:
    """sizes: degree -> dict(rows, blocks, largest_block, free_scalars)."""
    problems = []
    for deg, (rows, largest, free) in ASSEMBLE_LIMITS.items():
        s = sizes.get(deg)
        if s is None:
            problems.append(f"degree {deg} missing")
            continue
        limits = {"rows": rows, "blocks": ASSEMBLE_MAX_BLOCKS,
                  "largest_block": largest, "free_scalars": free}
        for key, limit in limits.items():
            if s[key] > limit:
                problems.append(f"degree {deg}: {key} {s[key]} above {limit}")
    return problems
