"""The four benchmark workloads.

Each workload turns the seed into one cycle of operation inputs.  A run
repeats whole cycles, so every run times each input stratum equally often
and the run-to-run spread reflects the code rather than which inputs a
seed happened to draw.  `load` is the set-up a fresh process pays before
its first operation (import swsos, read the inputs); `run` is one timed
operation; `check` judges its output with the rules in checks.py.
"""
from __future__ import annotations

import contextlib
import io
import json
from importlib import import_module
from pathlib import Path

import numpy as np

import checks

QUADRANT = "systems/quadrant-cubic.sys"
PUBLISHED = "systems/quadrant-cubic-V-stripped.lyap"
OPPOSING = "systems/opposing-fields.sys"

SWEEP_T_END = 2.0
SLIDING_SPAN = 2.0          # t_end = y0 + SLIDING_SPAN: a fixed sliding phase
SIM_STEP = 1e-3             # the CLI's default --step
ASSEMBLE_DEGREES = (4, 6, 8, 10)


def _cli_main(argv):
    """In-process `swsos ...`; returns (exit code, captured stdout)."""
    from swsos import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


class Verify:
    name = "verify"
    why = ("sampling oracle on the published family and on sign-flipped "
           "copies: oracle and poly evaluation busy, sim and sos idle")
    cycle_len = 4   # three published-family operations, one perturbed

    def load(self, root: Path):
        from swsos import cli
        sys_ = cli._load_system(str(root / QUADRANT))
        cli.load_lyapunov(str(root / PUBLISHED), sys_)
        return {"root": root}

    def cycle(self, ctx, seed: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        perturbed = self._perturb(ctx, rng, work)
        bad = int(rng.integers(self.cycle_len))
        return [{"oracle_seed": int(rng.integers(2**31)),
                 "lyapunov": perturbed if k == bad else ctx["root"] / PUBLISHED,
                 "perturbed": k == bad}
                for k in range(self.cycle_len)]

    @staticmethod
    def _perturb(ctx, rng, work: Path) -> Path:
        """Flip the sign of one pure-power term of one piece.

        Pure powers x1^k and x2^k do not vanish on the boundary x1*x2 = 0,
        so the flipped piece no longer agrees with the other one there and
        the family is not continuous: the oracle must refute it.
        """
        from swsos.poly import Polynomial, parse_polynomial
        texts = json.loads((ctx["root"] / PUBLISHED).read_text())["lyapunov"]
        rid = sorted(texts)[int(rng.integers(len(texts)))]
        V = parse_polynomial(texts[rid], 2)
        pure = sorted(m for m in V.terms if 0 in m)
        mono = pure[int(rng.integers(len(pure)))]
        flipped = dict(V.terms)
        flipped[mono] = -flipped[mono]
        texts[rid] = Polynomial(2, flipped).to_string()
        path = work / "perturbed.lyap"
        path.write_text(json.dumps({"dimension": 2, "lyapunov": texts}))
        return path

    def run(self, ctx, inp, work: Path):
        return _cli_main(["--seed", inp["oracle_seed"], "--out-dir", work,
                          "verify", ctx["root"] / QUADRANT, inp["lyapunov"]])

    def check(self, ctx, inp, out, work: Path) -> list:
        rc, stdout = out
        return checks.check_verify(inp["perturbed"], rc, stdout)


class Sweep:
    name = "sweep"
    why = ("acceptance theta-sweep with a psi certificate: RK4 kernel, psi "
           "bookkeeping and TSV writing busy; some (start, theta) pairs slide")
    # The corners of [-2,2]^2 (the acceptance suite's starts) and one point
    # on a side.  From (-2, 2) and (2, -2) the theta = 1 run slides.  From
    # (0.3, -2) it chatters from t = 1.8: hundreds of crossings, step
    # halvings and forced sliding entries, four times a corner's cost.
    # Chattering is erratic in the start (neighbouring side points slide
    # cleanly or chatter for most of the run), so a seeded point on a side
    # would make op_s follow the seed; each cycle visits these five starts
    # once, in a seeded order.
    STARTS = ((2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0), (0.3, -2.0))
    cycle_len = len(STARTS)

    def load(self, root: Path):
        from swsos import cli
        sys_ = cli._load_system(str(root / QUADRANT))
        lyap = cli.load_lyapunov(str(root / PUBLISHED), sys_)
        return {"root": root, "lyapunov": lyap}

    def cycle(self, ctx, seed: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        ops = []
        for k in rng.permutation(self.cycle_len):
            # 0 and 1 always; one interior value from each third of (0.05, 0.95)
            inner = [round(float(rng.uniform(0.05 + 0.3 * i, 0.35 + 0.3 * i)), 4)
                     for i in range(3)]
            ops.append({"x0": self.STARTS[k], "thetas": [0.0] + inner + [1.0]})
        return ops

    def run(self, ctx, inp, work: Path):
        x, y = inp["x0"]
        return _cli_main(["--out-dir", work, "simulate", ctx["root"] / QUADRANT,
                          f"--x0={x:g},{y:g}",
                          "--theta-sweep", ",".join(f"{v:g}" for v in inp["thetas"]),
                          "--t-end", SWEEP_T_END,
                          "--certificate", ctx["root"] / PUBLISHED])

    def check(self, ctx, inp, out, work: Path) -> list:
        rc, _ = out
        if rc != checks.EXIT_OK:
            return [f"exit {rc}"]
        problems = []
        for v in inp["thetas"]:
            path = work / f"quadrant-cubic__theta{v:g}.trajectory.tsv"
            rows, events = checks.parse_trajectory(path.read_text())
            psi = self._psi(ctx["lyapunov"], rows)
            problems += [f"theta {v:g}: {p}" for p in
                         checks.check_sweep_run(rows, events, inp["x0"], psi)]
            path.unlink()
        return problems

    @staticmethod
    def _psi(lyapunov: dict, rows) -> list:
        rids = [checks.region_of(r.mode) for r in rows]
        X = np.array([r.x for r in rows])
        psi = np.full(len(rows), np.nan)
        for rid in set(rids) - {None}:
            mask = np.array([r == rid for r in rids])
            psi[mask] = lyapunov[rid].eval_many(X[mask])
        return [None if rid is None else float(v) for rid, v in zip(rids, psi)]


class Sliding:
    name = "sliding"
    why = ("Filippov sliding on opposing fields: the Python sliding loop and "
           "scalar polynomial calls busy, the RK4 kernel only runs the fall")
    cycle_len = 4   # one start height from each 0.2-wide band of [0.2, 1.0]

    def load(self, root: Path):
        from swsos import cli
        cli._load_system(str(root / OPPOSING))
        return {"root": root}

    def cycle(self, ctx, seed: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        ops = []
        for k in rng.permutation(self.cycle_len):
            y0 = round(float(rng.uniform(0.2 + 0.2 * k, 0.4 + 0.2 * k)), 6)
            a = round(float(rng.uniform(0.0, 0.8)), 6)
            ops.append({"a": a, "y0": y0, "t_end": round(y0 + SLIDING_SPAN, 6)})
        return ops

    def run(self, ctx, inp, work: Path):
        return _cli_main(["--out-dir", work, "simulate", ctx["root"] / OPPOSING,
                          f"--x0={inp['a']!r},{inp['y0']!r}",
                          "--t-end", repr(inp["t_end"])])

    def check(self, ctx, inp, out, work: Path) -> list:
        rc, _ = out
        if rc != checks.EXIT_OK:
            return [f"exit {rc}"]
        path = work / "opposing-fields__theta-default.trajectory.tsv"
        rows, events = checks.parse_trajectory(path.read_text())
        path.unlink()
        return checks.check_sliding(rows, events, inp["a"], inp["y0"],
                                    inp["t_end"], SIM_STEP)


class Assemble:
    name = "assemble"
    why = ("certify's solver-free half: LinPoly construction and sos.assemble "
           "at degrees 4-10; sim and oracle idle. The seed is unused")
    seed_used = False

    def load(self, root: Path):
        from swsos.certify import CertificationConfig
        from swsos.system import load_system
        return {"system": load_system(root / QUADRANT),
                "configs": [CertificationConfig(lyapunov_degree=d)
                            for d in ASSEMBLE_DEGREES]}

    def cycle(self, ctx, seed: int, work: Path) -> list:
        return [None]

    def run(self, ctx, inp, work: Path):
        certify = import_module("swsos.certify")   # swsos.certify is the function
        # cross_pairs=None: cross conditions on both orders of every boundary
        return [certify.build_feasibility(ctx["system"], cfg, cross_pairs=None)[0]
                for cfg in ctx["configs"]]

    def check(self, ctx, inp, out, work: Path) -> list:
        problems, sizes = [], {}
        for cfg, problem in zip(ctx["configs"], out):
            try:
                problem.validate()
            except ValueError as exc:
                problems.append(f"degree {cfg.lyapunov_degree}: {exc}")
            blocks = [s for _, s in problem.psd_blocks]
            sizes[cfg.lyapunov_degree] = {
                "rows": len(problem.equality_rows), "blocks": len(blocks),
                "largest_block": max(blocks), "free_scalars": len(problem.free_scalars)}
        return problems + checks.check_assemble(sizes)


WORKLOADS = {w.name: w for w in (Verify(), Sweep(), Sliding(), Assemble())}
