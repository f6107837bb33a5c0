"""The swsos names that the benchmark under perfbench/ reads.

perfbench/spans.py wraps swsos functions and methods by name, and the
untraced benchmark path reads a few more.  A rename in swsos would
otherwise show up only as a crash of `perfbench/run.py --trace 1`; these
tests make it fail the unit suite instead.
"""
import importlib.util
from importlib import import_module
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracer = _load_spans().Tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer._targets]
    assert targets
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in zip(targets, originals))


def test_untraced_names_exist(systems_dir):
    from swsos import _kernels, cli
    from swsos.backend import SdpProblem
    from swsos.certify import CertificationConfig
    from swsos.poly import Polynomial

    assert isinstance(_kernels.USE_NUMBA, bool)
    assert isinstance(SdpProblem.__dict__["equality_rows"], property)
    assert callable(Polynomial.eval_many)
    sys_ = cli._load_system(str(systems_dir / "quadrant-cubic.sys"))
    cli.load_lyapunov(str(systems_dir / "quadrant-cubic-V-stripped.lyap"),
                      sys_)
    # swsos.certify the package attribute is the function
    certify = import_module("swsos.certify")
    problem, _ = certify.build_feasibility(
        sys_, CertificationConfig(lyapunov_degree=4), cross_pairs=None)
    assert len(problem.equality_rows) == len(problem.b)
    assert problem.psd_blocks and problem.free_scalars


def test_traced_simulate_counts_smooth_kernel_steps(systems_dir, tmp_path,
                                                    capsys):
    # the traced benchmark reads rk4_smooth_run's states as its first return
    # value: a change of that shape shows here as a crash or a zero count
    from swsos import cli

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["--out-dir", str(tmp_path), "simulate",
                         str(systems_dir / "opposing-fields.sys"),
                         "--x0=0.3,0.5", "--t-end", "1"]) == 0
        collected = tracer.collect()
    finally:
        tracer.uninstall()
    assert collected["calls"]["kernels.rk4"] > 0
    assert collected["counts"]["kernels.rk4_steps"] > 0
