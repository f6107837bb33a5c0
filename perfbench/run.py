"""Layered benchmark for swsos.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 one run times whole cycles of the workload's operations for
at least --seconds and prints the end-to-end metrics (op_ref_s, setup_s,
peak_rss_mb; the unscaled op_s and failed_frac in the table and the
record).  With --trace 1 cycles alternate between untraced and traced,
and the run prints the per-layer metrics read from the spans of the
traced cycles plus the tracing overhead.  Every operation's output is checked.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Operations run one after another in this process; set-up probes and
`--workload all` children are separate processes started one at a time.
BLAS threads are capped at the number of usable CPUs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
# Seed that later performance claims must also hold on; keep it out of the
# runs used while developing a change.
HELD_OUT_SEED = 20171
CHILD_TIMEOUT_S = 170
# Calibration: a fixed loop timed after every operation.  On a shared
# 2-CPU host the same loop took 8 ms or 13 ms depending on the moment, so
# op_ref_s and setup_s rescale timings to the speed at which the
# calibration takes CAL_REF_S.
CAL_LOOP = 2000
CAL_EXPS = [[2, 1], [0, 3], [1, 1], [4, 0], [6, 0], [0, 2], [3, 1], [1, 3]]
CAL_REF_S = 0.010
CAL_WINDOW_S = 2.0


def _cap_threads():
    # must run before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)


def _import_program():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import swsos.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import swsos from {ROOT / 'src'}: {exc}")


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    from swsos import _kernels
    cvxpy = subprocess.run([sys.executable, "-c", "import cvxpy"], cwd=ROOT,
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": NPROC,
        "blas_threads": NPROC,
        "kernel": "numba" if _kernels.USE_NUMBA else "numpy",
        "backend": "cvxpy" if cvxpy.returncode == 0 else "none",
    }


def comparable(env_a: dict, env_b: dict) -> list:
    """Reasons two records cannot be compared (empty when they can)."""
    return [f"{key} {env_a.get(key)} vs {env_b.get(key)}"
            for key in ("kernel", "backend")
            if env_a.get(key) != env_b.get(key)]


def measure_setup(name: str) -> tuple:
    """(set-up seconds of SETUP_REPEATS fresh processes, calibrations taken
    between them)."""
    wall, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        cals.append(calibrate())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall.append(float(proc.stdout.split()[-1]))
    return wall, cals


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work swsos does: small numpy
    calls from a Python loop, a dict keyed by exponent tuples, and one
    vectorised power table."""
    import numpy as np
    x = np.arange(3.0)
    pts = np.linspace(-1.0, 1.0, 4000).reshape(2000, 1, 2)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOP):
        acc += float(np.dot(x, x + i))
    table = {}
    for i in range(4 * CAL_LOOP):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0.0) + 1.0
    acc += float(np.prod(pts ** CAL_EXPS, axis=2).sum())
    return time.perf_counter() - t0


def rescale(seconds: float, cals: list) -> float:
    """Seconds at the speed where the calibration takes CAL_REF_S."""
    return seconds * CAL_REF_S / statistics.fmean(cals)


def rescale_ops(ops: list, cals: list) -> list:
    """Rescale each (start, seconds) operation by the mean of the
    calibrations (time, seconds) taken within CAL_WINDOW_S of it.  The host
    switches between a fast and a slow state within a second or two, so one
    10 ms calibration catches one state while an operation spans several:
    the mean over a window around the operation estimates its mix."""
    out = []
    for start, dt in ops:
        mid = start + 0.5 * dt
        near = [c for t, c in cals if abs(t - mid) <= 0.5 * dt + CAL_WINDOW_S]
        out.append(rescale(dt, near))
    return out


def timed_cycles(wl, ctx, ops, seconds, work, tracer=None):
    """Run whole cycles of ops until `seconds` have passed.

    With a tracer, even cycles run untraced and odd cycles traced, and the
    loop stops after a traced cycle so both halves cover the same inputs.
    A calibration runs after every operation.  Returns ((start, seconds)
    of each operation by traced flag, (time, seconds) of each calibration,
    traced op records, attempted, failed).
    """
    times = {False: [], True: []}
    cals = []
    traced_ops = []
    attempted = failed = 0

    def calibrate_at():
        cals.append((time.perf_counter(), calibrate()))

    start = time.perf_counter()
    calibrate_at()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        for inp in ops:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.run(ctx, inp, work)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                traced_ops.append(tracer.collect())
            times[traced].append((t0, dt))
            calibrate_at()
            attempted += 1
            problems = wl.check(ctx, inp, out, work)
            if problems:
                failed += 1
                print(f"check failed ({wl.name}, {inp}): {'; '.join(problems)}",
                      file=sys.stderr)
        cycle += 1
        if time.perf_counter() - start >= seconds and \
                (tracer is None or cycle % 2 == 0):
            return times, cals, traced_ops, attempted, failed


def cycle_means(values: list, cycle_len: int) -> list:
    """Mean of each whole cycle.  A cycle holds every input stratum once, so
    its mean does not depend on which strata are cheap; the median of
    single operations would fall between the clusters of cheap and dear
    inputs (on sweep, corners that slide cost more than those that do not)."""
    return [statistics.fmean(values[k:k + cycle_len])
            for k in range(0, len(values), cycle_len)]


def _summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "max": max(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup = None if trace else measure_setup(name)
    ctx = wl.load(ROOT)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = wl.cycle(ctx, seed, work)
        times, cals, traced_ops, attempted, failed = timed_cycles(
            wl, ctx, ops, seconds, work, Tracer() if trace else None)
    finally:
        shutil.rmtree(work)

    plain = [dt for _, dt in times[False]]
    ref = {traced: statistics.median(
               cycle_means(rescale_ops(times[traced], cals), len(ops)))
           for traced in (False, True) if times[traced]}
    if trace:
        metrics = layer_metrics(traced_ops)
        metrics["trace.overhead_s"] = (ref[True] - ref[False], "s")
    else:
        metrics = {
            "op_ref_s": (ref[False], "s"),
            "setup_s": (rescale(statistics.median(setup[0]), setup[1]), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record = {
        "workload": name, "why": wl.why,
        "seed": seed, "seed_used": getattr(wl, "seed_used", True),
        "held_out_seed": HELD_OUT_SEED, "seconds": seconds, "trace": trace,
        "cycle_len": len(ops), "env": environment(),
        "op_s": _summary(plain),
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        record["traced_op_s"] = _summary([dt for _, dt in times[True]])
        record["not_measured"] = {
            "backend.solve_s": "no workload reaches a conic solve; the "
                               "end-to-end certify workload is added once "
                               "a conic backend can run"}
    record["calibration_s"] = _summary([c for _, c in cals])
    if setup:
        record["setup_wall_s"] = _summary(setup[0])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "record": record}


def run_all(args) -> dict:
    """Each workload in its own child process, one at a time, so that
    peak_rss_mb is that workload's own peak."""
    results = {}
    for name in _workload_names():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S * 4)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    metrics = {f"{name}.{k}": v for name, (_, last) in results.items()
               for k, v in last["metrics"].items()}
    return {"correct": all(last["correct"] for _, last in results.values()),
            "attempted": sum(last["attempted"] for _, last in results.values()),
            "failed": sum(last["failed"] for _, last in results.values()),
            "records": [rec for rec, _ in results.values()],
            "metrics": metrics}


def _workload_names():
    from workloads import WORKLOADS
    return list(WORKLOADS)


def print_table(record: dict):
    rows = [(k, m["value"], m["unit"]) for k, m in record["metrics"].items()]
    if not record["trace"]:
        rows.append(("op_s", record["op_s"]["median"], "s"))
    rows.append(("failed_frac", record["failed_frac"], "ratio"))
    for key, value, unit in rows:
        print(f"{record['workload']:9s} {key:34s} {value:14.6g} {unit}")


def print_against(record: dict, path: Path):
    base = {r["workload"]: r for r in json.loads(path.read_text())}
    name = record["workload"]
    if name not in base:
        print(f"{name}: no record in {path}")
        return
    reasons = comparable(base[name]["env"], record["env"])
    if reasons:
        print(f"{name}: not comparable with {path}: " + ", ".join(reasons))
        return
    for key, m in record["metrics"].items():
        old = base[name]["metrics"].get(key, {}).get("value")
        if old:
            print(f"{name:9s} {key:34s} {m['value'] / old:8.3f}x of {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify | sweep | sliding | assemble | all")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also write the records (env, seed, metrics) here")
    parser.add_argument("--against", type=Path,
                        help="compare with a record written by --record")
    args = parser.parse_args(argv)

    _cap_threads()
    _import_program()
    names = _workload_names()
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    if args.workload == "all":
        result = run_all(args)
        records = result.pop("records")
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        records = [result.pop("record")]
        result["metrics"] = records[0]["metrics"]
    for rec in records:
        print_table(rec)
        if args.against:
            print_against(rec, args.against)
    if args.record:
        args.record.write_text(json.dumps(records, indent=2) + "\n")
    print(json.dumps({"record": records[0] if len(records) == 1 else records}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
