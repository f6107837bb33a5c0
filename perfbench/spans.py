"""Spans and counters around the public functions of each swsos module.

The wrappers are installed from here, never inside swsos: module-level
functions that swsos looks up at call time (sim -> _kernels.rk4_smooth_run,
detect_crossing, sliding_weight; oracle -> sample_region, sample_boundary,
lie_derivative; certify -> assemble; cli -> its loaders, writers and the
library entry points) are replaced on the module that calls them, and
methods are replaced on their class.  `install` swaps them in and
`uninstall` restores the originals, so an untraced operation runs the
unmodified code.

A span is (name, parent index, start, end).  Self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from importlib import import_module
from pathlib import Path
from statistics import median

import numpy as np


class _CountingRng:
    """Passes draws through to a numpy Generator and counts uniform() calls."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _CountingFile:
    def __init__(self, fh):
        self._fh = fh
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Collects spans and counters for one operation at a time."""

    def __init__(self):
        # import_module: the package attribute `swsos.certify` is the function
        kernels, backend, certify, cli, oracle, sim = (
            import_module(f"swsos.{m}") for m in
            ("_kernels", "backend", "certify", "cli", "oracle", "sim"))
        from swsos.poly import Polynomial, PolyVector
        from swsos.system import SwitchedSystem

        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []
        c = self.counts

        def boundary_pre(args, kwargs):
            args = list(args)
            args[3] = _CountingRng(args[3])
            return tuple(args), kwargs

        def boundary_post(args, kwargs, result):
            c["oracle.boundary_draws"] += args[3].uniform_calls // 2
            c["oracle.boundary_points"] += result[0].shape[0]

        def write_pre(args, kwargs):
            args = list(args)
            args[1] = _CountingFile(args[1])
            return tuple(args), kwargs

        def write_post(args, kwargs, result):
            c["cli.bytes_written"] += args[1].chars

        def json_post(args, kwargs, result):
            c["cli.bytes_written"] += Path(args[0]).stat().st_size

        def simulate_post(args, kwargs, traj):
            c["sim.points"] += len(traj.points)
            c["sim.sliding_steps"] += sum(
                1 for p in traj.points if p.mode.startswith("sliding:"))
            kinds = traj.event_kinds()
            c["sim.crossings"] += kinds.count("crossing")
            c["sim.step_halvings"] += kinds.count("step_halved")

        def rk4_post(args, kwargs, result):
            c["kernels.rk4_steps"] += result[0].shape[0] - 1

        def oracle_post(args, kwargs, report):
            c["oracle.samples"] += sum(r.samples for r in report.records)

        def assemble_post(args, kwargs, problem):
            sizes = [s for _, s in problem.psd_blocks]
            c["sos.rows"] += len(problem.equality_rows)
            c["sos.psd_blocks"] += len(sizes)
            c["sos.largest_block"] = max(c["sos.largest_block"], max(sizes))
            c["sos.gram_entries"] += sum(s * (s + 1) // 2 for s in sizes)
            c["sos.free_scalars"] += len(problem.free_scalars)
            c["sos.row_terms"] += sum(len(t) for t, _ in problem.equality_rows)

        # (owner, attribute, span name, pre hook, post hook)
        self._targets = [
            (cli, "_load_system", "cli.load", None, None),
            (cli, "load_lyapunov", "cli.load", None, None),
            (cli, "write_trajectory", "cli.write", write_pre, write_post),
            (cli, "_write_json", "cli.write", None, json_post),
            (cli, "verify_certificate", "oracle.conditions", None, oracle_post),
            (cli, "simulate", "sim.simulate", None, simulate_post),
            (oracle, "sample_region", "oracle.sample_region", None, None),
            (oracle, "sample_boundary", "oracle.sample_boundary",
             boundary_pre, boundary_post),
            (oracle, "lie_derivative", "poly.lie_derivative", None, None),
            (Polynomial, "eval_many", "poly.eval_many", None, None),
            (Polynomial, "__call__", "poly.call", None, None),
            (PolyVector, "__call__", "poly.call", None, None),
            (kernels, "rk4_smooth_run", "kernels.rk4", None, rk4_post),
            (sim, "detect_crossing", "sim.detect_crossing", None, None),
            (sim, "sliding_weight", "sim.sliding_weight", None, None),
            (SwitchedSystem, "locate", "system.locate", None, None),
            (SwitchedSystem, "field_at", "system.field_at", None, None),
            (certify, "build_feasibility", "certify.build_feasibility",
             None, None),
            (certify, "assemble", "sos.assemble", None, assemble_post),
            (backend.SdpProblem, "validate", "backend.validate", None, None),
        ]

    def _wrap(self, fn, name, pre, post):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if post is not None:
                post(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, pre, post in self._targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, pre, post))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def collect(self) -> dict:
        """Per-span-name (calls, self seconds) of the operation just traced,
        plus its counters; clears both for the next operation."""
        child = np.zeros(len(self.spans))
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for k, (name, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[k]
        out = {"calls": calls, "self_s": self_s, "counts": Counter(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return out


def layer_metrics(ops: list) -> dict:
    """Per-operation layer metrics over the traced operations.

    ops: list of Tracer.collect() results, one per traced operation.  Times
    are medians per operation, since a collection pause or a busy
    neighbour can stretch single operations.  Counts are means per
    operation; the traced operations are whole cycles of deterministic
    inputs, so they repeat exactly for a seed.  Returns name -> (value, unit).
    """
    n = len(ops)
    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    for op in ops:
        calls.update(op["calls"])
        counts.update(op["counts"])
        for name, s in op["self_s"].items():
            self_s[name] += s
    t = lambda name: median(op["self_s"].get(name, 0.0) for op in ops)
    per_op = lambda v: v / n
    draws = counts["oracle.boundary_draws"]
    steps = counts["kernels.rk4_steps"]
    largest = max(op["counts"]["sos.largest_block"] for op in ops)
    return {
        "cli.load_s": (t("cli.load"), "s"),
        "cli.write_s": (t("cli.write"), "s"),
        "cli.bytes_written": (per_op(counts["cli.bytes_written"]), "bytes"),
        "oracle.sample_region_s": (t("oracle.sample_region"), "s"),
        "oracle.sample_boundary_s": (t("oracle.sample_boundary"), "s"),
        "oracle.boundary_draws": (per_op(draws), "count"),
        "oracle.boundary_hit_ratio": (
            counts["oracle.boundary_points"] / draws if draws else 0.0, "ratio"),
        "oracle.conditions_s": (t("oracle.conditions"), "s"),
        "oracle.samples": (per_op(counts["oracle.samples"]), "count"),
        "poly.eval_many_calls": (per_op(calls["poly.eval_many"]), "count"),
        "poly.eval_many_s": (t("poly.eval_many"), "s"),
        "poly.call_count": (per_op(calls["poly.call"]), "count"),
        "poly.call_s": (t("poly.call"), "s"),
        "poly.lie_derivative_s": (t("poly.lie_derivative"), "s"),
        "kernels.rk4_calls": (per_op(calls["kernels.rk4"]), "count"),
        "kernels.rk4_steps": (per_op(steps), "count"),
        "kernels.rk4_s": (t("kernels.rk4"), "s"),
        "kernels.rk4_us_per_step": (
            1e6 * self_s["kernels.rk4"] / steps if steps else 0.0, "us"),
        "sim.simulate_self_s": (t("sim.simulate"), "s"),
        "sim.points": (per_op(counts["sim.points"]), "count"),
        "sim.sliding_steps": (per_op(counts["sim.sliding_steps"]), "count"),
        "sim.crossings": (per_op(counts["sim.crossings"]), "count"),
        "sim.step_halvings": (per_op(counts["sim.step_halvings"]), "count"),
        "sim.detect_crossing_calls": (per_op(calls["sim.detect_crossing"]), "count"),
        "sim.detect_crossing_s": (t("sim.detect_crossing"), "s"),
        "sim.sliding_weight_calls": (per_op(calls["sim.sliding_weight"]), "count"),
        "system.locate_calls": (per_op(calls["system.locate"]), "count"),
        "system.field_at_calls": (per_op(calls["system.field_at"]), "count"),
        "certify.build_feasibility_self_s": (t("certify.build_feasibility"), "s"),
        "sos.assemble_s": (t("sos.assemble"), "s"),
        "backend.validate_s": (t("backend.validate"), "s"),
        "sos.rows": (per_op(counts["sos.rows"]), "count"),
        "sos.psd_blocks": (per_op(counts["sos.psd_blocks"]), "count"),
        "sos.largest_block": (float(largest), "count"),
        "sos.gram_entries": (per_op(counts["sos.gram_entries"]), "count"),
        "sos.free_scalars": (per_op(counts["sos.free_scalars"]), "count"),
        "sos.row_terms": (per_op(counts["sos.row_terms"]), "count"),
    }
