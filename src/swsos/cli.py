"""Command-line entry point: certify / simulate / verify / attractivity /
validate.

Exit codes are the machine contract:
    certify    0 CERTIFIED, 2 no certificate at the degree, 3 numerically
               suspect, 1 input error
    verify     0 no violation found, 4 violated (witness printed), 1 input
               error
    simulate / attractivity / validate
               0 success, 1 input error (validate returns 1 when any check
               fails)
A usage error (an unknown option, a missing or malformed argument) is an
input error too: every command exits 1 on it, and -h exits 0.

certify always runs the attractivity test; a certificate's
attractive_pairs lists the boundaries that keep cross (sliding)
conditions, and verify checks lie_boundary only there, a pair in either
order naming its boundary (everywhere for a file without the key).

Every output file records the hash of the run manifest (command, inputs,
config, seed) so reports can be traced back to the exact invocation.

simulate runs the values of a --theta-sweep on W = min(number of values,
usable CPUs) workers: the process forks W - 1 children, runs every W-th
value from the first itself, and child k runs every W-th value from the
k-th.  Each run calls simulate and write_trajectory and writes its own
file; a child pickles each run's file name and summary line, or the
exception its run raised, to a pipe and leaves with os._exit.  The parent reads every pipe to EOF,
reaps every child, prints the lines in sweep order and re-raises the
first failing run's exception.  Before it does, it removes the files that
other workers wrote for values after the failing one, so the files left
are those of a serial sweep.  --theta, the default theta, a one-value
sweep, one usable CPU, or a platform without os.fork and
os.sched_getaffinity give W = 1: nothing forks, and the one stripe is the
whole run list.  The generated RK4 kernels are therefore shared within a
worker, not across a whole sweep.  The fork happens while numpy's
OpenBLAS holds a worker thread: Python 3.11 forks silently, but Python
3.12 and later warn (DeprecationWarning) about fork in a multi-threaded
process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import sys as _sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (CERTIFIED, NO_CERTIFICATE, CertificationConfig,
                      certify, check_attractivity, require_valid)
from .oracle import OracleConfig, origin_values, verify_certificate
from .poly import PolynomialParseError, parse_polynomial
from .sim import SimConfig, norm, simulate, write_trajectory
from .system import SystemFormatError, load_system, on_simplex

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CERT = 2
EXIT_SUSPECT = 3
EXIT_VIOLATED = 4


class InputError(ValueError):
    pass


# -- run manifest -------------------------------------------------------------

def make_manifest(command: str, inputs, overrides: dict, seed: int,
                  out_dir: str) -> dict:
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "config": {k: v for k, v in sorted(overrides.items())},
        "seed": seed,
        "out_dir": str(out_dir),
        "version": __version__,
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    manifest["hash"] = hashlib.sha256(blob).hexdigest()[:16]
    # timing is recorded but deliberately excluded from the hash so that
    # identical invocations produce identical report bytes
    manifest["started"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return manifest


def _strict(obj):
    """obj with every non-finite float replaced by "nan", "inf" or "-inf",
    which strict JSON has no number for."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _out_dir(path: str) -> Path:
    """--out-dir, created with its parents before a command's work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out-dir {path}: cannot create: {exc}") from exc
    return Path(path)


def _write_json(path: Path, doc: dict):
    text = json.dumps(_strict(doc), indent=2, sort_keys=False, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# -- input loading ------------------------------------------------------------

def _load_system(path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"{path}: no such file")
    try:
        return load_system(p)
    except SystemFormatError as exc:
        raise InputError(str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc


def load_lyapunov(path: str, sys_) -> dict:
    """Read a Lyapunov family file: {"lyapunov": {region id: polynomial}}.

    Certificate files written by cmd_certify are accepted too (their
    full-precision "lyapunov_full" entry wins over the cleaned display
    form).
    """
    return _lyapunov_table(path, _read_lyapunov_doc(path), sys_)


def _read_lyapunov_doc(path: str) -> dict:
    """The JSON object of a Lyapunov or certificate file."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"{path}: no such file")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def _lyapunov_table(path: str, doc: dict, sys_) -> dict:
    """Region id -> Polynomial from a document read by _read_lyapunov_doc."""
    table = doc.get("lyapunov_full") or doc.get("lyapunov")
    if not isinstance(table, dict):
        raise InputError(f"{path}: missing 'lyapunov' table")
    out, keys = {}, {}
    for rid_s, text in table.items():
        if not isinstance(text, str):
            raise InputError(f"{path}: entry {rid_s!r}: expected a polynomial string")
        try:
            rid = int(rid_s)
            poly = parse_polynomial(text, sys_.dimension)
        except (ValueError, PolynomialParseError) as exc:
            raise InputError(f"{path}: entry {rid_s!r}: {exc}") from exc
        # "1" and "01" name one region: the later entry must not replace the first
        if rid in keys:
            raise InputError(f"{path}: entries {keys[rid]!r} and {rid_s!r} "
                             f"both name region {rid}")
        out[rid], keys[rid] = poly, rid_s
    missing = set(sys_.regions) - set(out)
    extra = set(out) - set(sys_.regions)
    if missing or extra:
        raise InputError(
            f"{path}: lyapunov table must have exactly one entry per region "
            f"(missing {sorted(missing)}, unknown {sorted(extra)})")
    return out


def _config(cls, **fields):
    """Build a config dataclass; a value it rejects is an input error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_floats(text: str, what: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _theta_table(sys_, weights) -> dict:
    """Per-region simplex weights for one run.

    Every region with len(weights) vertices gets tuple(weights); every
    other region is left out of the table, so it keeps its first vertex.
    A sweep value v is the weights (v, 1 - v): a one-parameter
    uncertainty sweep applied to the two-vertex regions of a mixed system.
    """
    return {rid: tuple(weights) for rid, r in sys_.regions.items()
            if len(r.vertices) == len(weights)}


# -- commands ------------------------------------------------------------------

def cmd_certify(args) -> int:
    sys_ = _load_system(args.system)
    # a system that fails validation is an input error, found before
    # --out-dir is created
    try:
        require_valid(sys_)
    except SystemFormatError as exc:
        raise InputError(str(exc)) from exc
    cfg = _config(CertificationConfig, lyapunov_degree=args.degree)
    oracle_cfg = _config(OracleConfig, seed=args.seed, tolerance=args.tolerance)
    manifest = make_manifest(
        "certify", [args.system],
        {"degree": args.degree, "tolerance": args.tolerance},
        args.seed, args.out_dir)
    out = _out_dir(args.out_dir) / f"{Path(args.system).stem}.certificate.json"

    cert = certify(sys_, cfg, oracle_cfg=oracle_cfg)
    doc = cert.to_dict()
    doc["manifest"] = manifest

    _write_json(out, doc)
    print(f"{cert.status}: {cert.detail or 'see ' + str(out)}")
    if cert.lyapunov:
        for rid in sorted(cert.lyapunov):
            print(f"  V_{rid} = {doc['lyapunov'][str(rid)]}")
    print(f"  written {out}")
    if cert.status == CERTIFIED:
        return EXIT_OK
    if cert.status == NO_CERTIFICATE:
        return EXIT_NO_CERT
    return EXIT_SUSPECT


def cmd_simulate(args) -> int:
    sys_ = _load_system(args.system)
    x0 = np.array(_parse_floats(args.x0, "--x0"))
    if x0.shape != (sys_.dimension,):
        raise InputError(f"--x0 needs {sys_.dimension} coordinates")
    if not sys_.in_box(x0):
        raise InputError(f"--x0 {x0.tolist()} is outside the system box")

    certificate = None
    if args.certificate is not None:
        certificate = load_lyapunov(args.certificate, sys_)

    if args.theta is not None and args.theta_sweep is not None:
        raise InputError("--theta and --theta-sweep cannot be given together")
    # one (file label, weights) per run, each checked the same way
    if args.theta_sweep is not None:
        flag, texts = "--theta-sweep", args.theta_sweep.split(",")
        runs = [(f"theta{v:g}", (v, 1.0 - v))
                for v in _parse_floats(args.theta_sweep, flag)]
    elif args.theta is not None:
        flag, texts = "--theta", [args.theta]
        runs = [("theta", _parse_floats(args.theta, flag))]
    else:
        flag, texts, runs = None, [None], [("theta-default", None)]
    configs, labels = [], {}
    for text, (label, weights) in zip(texts, runs):
        # one file per run: two values with one label would share it
        if label in labels:
            raise InputError(f"{flag} values {labels[label]!r} and {text!r} "
                             f"both write the file label {label}")
        labels[label] = text
        table = None
        if weights is not None:
            # field_at's own test, so an accepted theta is never refused later
            if not on_simplex(weights):
                raise InputError(f"{flag} {list(weights)} is not on the simplex")
            table = _theta_table(sys_, weights)
            if not table:
                raise InputError(f"{flag} sets {len(weights)}-vertex regions, "
                                 f"but no region has {len(weights)} vertices")
        configs.append((label, _config(SimConfig, step=args.step,
                                       t_end=args.t_end, theta=table)))

    manifest = make_manifest(
        "simulate",
        [args.system] + ([] if args.certificate is None else [args.certificate]),
        {"x0": args.x0, "theta": args.theta, "theta_sweep": args.theta_sweep,
         "t_end": args.t_end, "step": args.step},
        args.seed, args.out_dir)

    out_dir = _out_dir(args.out_dir)

    def run(label, cfg) -> tuple:
        """Simulate and write one run; (file name, summary line)."""
        traj = simulate(sys_, x0, cfg, certificate=certificate)
        name = f"{Path(args.system).stem}__{label}.trajectory.tsv"
        with open(out_dir / name, "w") as fh:
            write_trajectory(traj, fh, manifest_hash=manifest["hash"])
        last = traj.events[-1]
        return name, (f"{name}: {traj.count} points, final event {last[1]} "
                      f"at t={last[0]:.4g}, "
                      f"||x||={norm(traj.final_state.tolist()):.3e}")

    done, exc, later = _run_striped(configs, run)
    for _, line in done:
        print(line)
    if exc is not None:
        # a serial sweep stops at the failing value: remove the files other
        # workers wrote for values after it
        for name, _ in later:
            (out_dir / name).unlink()
        raise exc
    return EXIT_OK


# -- sweep workers -------------------------------------------------------------

def _workers(n_runs: int) -> int:
    """One worker per usable CPU, at most one per run; 1 where os.fork or
    os.sched_getaffinity does not exist."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(n_runs, len(os.sched_getaffinity(0)))


def _stripe(runs, work) -> tuple:
    """(results, exception): work(*run) for each run in order, up to the
    first that raises, and its exception (None when none raised)."""
    results = []
    for run in runs:
        try:
            results.append(work(*run))
        except Exception as exc:
            return results, exc
    return results, None


def _fork_stripe(runs, work) -> tuple:
    """(pid, read end of its pipe) of a child that pickles _stripe(runs,
    work) to the pipe and leaves with os._exit, whatever happens."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            results, exc = _stripe(runs, work)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            with open(w, "wb") as fh:
                pickle.dump((results, exc), fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _reap(pid: int, r: int, runs) -> tuple:
    """A forked stripe's (results, exception): its pipe read to EOF, then
    the child reaped; a child that left no payload is a RuntimeError."""
    with open(r, "rb") as fh:
        data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        return pickle.loads(data)
    except Exception:
        return [], RuntimeError(
            f"worker for {[label for label, _ in runs]} exited with status "
            f"{status} and no result")


def _run_striped(runs, work) -> tuple:
    """_stripe(runs, work) computed on _workers(len(runs)) processes, and
    the results of the runs after the first failing one that other workers
    finished: (results, exception, later).

    Child k runs runs[k::W] while this process runs runs[0::W]; results
    come back in run order, up to the first run that raised, with its
    exception.  Every child is reaped, also when this process's stripe or
    a fork raises."""
    W = _workers(len(runs))
    outcomes, children = [None], []
    try:
        for k in range(1, W):
            children.append(_fork_stripe(runs[k::W], work))
        outcomes[0] = _stripe(runs[0::W], work)
    finally:
        outcomes += [_reap(pid, r, runs[k::W])
                     for k, (pid, r) in enumerate(children, 1)]
    finished = {k + m * W: result for k, (done, _) in enumerate(outcomes)
                for m, result in enumerate(done)}
    # a stripe stops at its first failing run: the first run missing from
    # `finished` is the first failing one in run order
    failed = next((i for i in range(len(runs)) if i not in finished), None)
    if failed is None:
        return [finished[i] for i in range(len(runs))], None, []
    return ([finished[i] for i in range(failed)], outcomes[failed % W][1],
            [finished[i] for i in range(failed + 1, len(runs)) if i in finished])


def cmd_verify(args) -> int:
    sys_ = _load_system(args.system)
    doc = _read_lyapunov_doc(args.lyapunov)
    lyapunov = _lyapunov_table(args.lyapunov, doc, sys_)
    # positivity tests V - V(0): the origin regions must agree on V(0)
    values = list(origin_values(sys_, lyapunov).items())
    for (ri, vi), (rj, vj) in zip(values, values[1:]):
        if vi != vj:
            raise InputError(f"{args.lyapunov}: origin regions {ri} and {rj} "
                             f"disagree on V(0): {vi!r} and {vj!r}")
    # certificate files record which boundaries can host sliding; cross-Lie
    # conditions only apply there.  Plain Lyapunov files check every pair.
    pairs = doc.get("attractive_pairs")
    try:
        # sys_.boundary raises KeyError for a pair naming no boundary and
        # TypeError for one of other than two entries
        named = pairs is None or isinstance(pairs, list) and all(
            isinstance(p, list) and all(type(r) is int for r in p)
            and sys_.boundary(*p) is not None for p in pairs)
    except (KeyError, TypeError):
        named = False
    if not named:
        raise InputError(
            f"{args.lyapunov}: 'attractive_pairs' must be a list of [i, j] "
            f"pairs naming declared boundaries "
            f"{sorted(b.pair for b in sys_.boundaries)}")
    cfg = _config(OracleConfig, seed=args.seed, tolerance=args.tolerance)
    manifest = make_manifest("verify", [args.system, args.lyapunov],
                             {"tolerance": args.tolerance},
                             args.seed, args.out_dir)
    out = _out_dir(args.out_dir) / f"{Path(args.system).stem}.oracle.json"
    report = verify_certificate(sys_, lyapunov, cfg, attractive_pairs=pairs)
    doc = report.to_dict()
    doc["manifest"] = manifest
    _write_json(out, doc)
    for rec in report.records:
        print(rec.summary())
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"verdict: {report.verdict}")
    print(f"  written {out}")
    return EXIT_OK if report.passed else EXIT_VIOLATED


def cmd_attractivity(args) -> int:
    sys_ = _load_system(args.system)
    try:
        i_s, j_s = args.pair.split(",")
        pair = (int(i_s), int(j_s))
    except ValueError as exc:
        raise InputError(f"bad --pair {args.pair!r}: expected i,j") from exc
    try:
        status = check_attractivity(sys_, pair)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    print(f"boundary ({pair[0]},{pair[1]}): {status}")
    return EXIT_OK


def cmd_validate(args) -> int:
    sys_ = _load_system(args.system)
    report = sys_.validate(rng=np.random.default_rng(args.seed))
    for name, status, detail in report.checks:
        print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    for caveat in report.caveats:
        print(f"caveat: {caveat}")
    return EXIT_INPUT if report.has_fail else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit EXIT_INPUT, not 2, which
    certify reserves for "no certificate at the degree"; its subcommand
    parsers are of this class too."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swsos",
        description="SOS certification and Filippov simulation for "
                    "polynomial switched systems")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for all sampling (default 0)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for report/trajectory files")
    parser.add_argument("--tolerance", type=float, default=1e-6,
                        help="oracle refutation tolerance (default 1e-6)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="search for a joint SOS certificate")
    p.add_argument("system")
    p.add_argument("--degree", type=int, default=6,
                   help="Lyapunov polynomial degree (even, default 6)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate a Filippov trajectory")
    p.add_argument("system")
    p.add_argument("--x0", required=True, help="start point, comma-separated")
    p.add_argument("--theta", help="simplex weights, comma-separated")
    p.add_argument("--theta-sweep",
                   help="comma-separated first-vertex weights; one "
                        "trajectory file per value (two-vertex regions "
                        "get (v, 1-v))")
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--certificate",
                   help="Lyapunov file; records the switched Lyapunov "
                        "value on every trajectory point")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="sampling-oracle check of a "
                                      "Lyapunov family")
    p.add_argument("system")
    p.add_argument("lyapunov")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attractivity", help="SOS sliding-mode pre-test "
                                            "for one boundary")
    p.add_argument("system")
    p.add_argument("--pair", required=True, help="boundary pair i,j")
    p.set_defaults(func=cmd_attractivity)

    p = sub.add_parser("validate", help="structural checks of a system file")
    p.add_argument("system")
    p.set_defaults(func=cmd_validate)
    return parser


# the one parser of a process, built by the first main() call rather than
# at import; parse_args leaves it as it was, so later calls reuse it
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise InputError(f"--seed {args.seed} is negative")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
