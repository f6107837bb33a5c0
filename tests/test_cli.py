"""CLI contract tests.  Exit codes are the machine interface:
certify 0/2/3/1, verify 0/4/1, everything else 0/1."""

import json
import os
import warnings
from pathlib import Path

import pytest

from swsos.cli import main

QUAD = "systems/quadrant-cubic.sys"
PUBLISHED_V = "systems/quadrant-cubic-V-stripped.lyap"
OPPOSING = "systems/opposing-fields.sys"
SHIPPED = sorted((Path(__file__).resolve().parent.parent / "systems").glob("*.sys"))


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + args)


def test_missing_file_is_input_error(tmp_path, capsys):
    assert run(["certify", "no-such.sys"], tmp_path) == 1
    assert "no such file" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    assert run(["validate", QUAD], tmp_path) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "caveat" in out


def test_validate_fail_exit_code(tmp_path):
    bad = tmp_path / "bad.sys"
    doc = json.loads(Path(QUAD).read_text())
    doc["regions"][0]["witness"] = [-1.0, 1.0]  # violates x1*x2 >= 0
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)], tmp_path) == 1


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_every_shipped_system_validates(tmp_path, path):
    assert run(["validate", str(path)], tmp_path) == 0


NON_FINITE = pytest.mark.parametrize("text, value", [
    ("1e400*x1", "inf"),
    ("1e400*x1 - 1e400*x1", "nan"),
], ids=["inf", "nan"])


@NON_FINITE
@pytest.mark.parametrize("command", [["validate"], ["certify", "--degree", "2"]],
                         ids=["validate", "certify"])
def test_non_finite_coefficient_in_system_is_input_error(tmp_path, capsys, text,
                                                         value, command):
    # a non-finite coefficient is a format error, not a certify traceback
    doc = json.loads(Path(OPPOSING).read_text())
    doc["dynamics"]["1"][0][0] = text
    bad = tmp_path / "bad.sys"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), command[0], str(bad), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"coefficient {value} is not finite" in err


@NON_FINITE
def test_non_finite_coefficient_in_lyapunov_is_input_error(tmp_path, capsys,
                                                           text, value):
    bad = tmp_path / "bad.lyap"
    bad.write_text(json.dumps({"lyapunov": {"1": f"x1^2 + x2^2 + {text}",
                                            "2": "x1^2 + x2^2"}}))
    assert run(["verify", OPPOSING, str(bad)], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: entry '1': ")
    assert f"coefficient {value} is not finite" in err


def test_verify_published_family_exit_0(tmp_path, capsys):
    assert run(["verify", QUAD, PUBLISHED_V], tmp_path) == 0
    out = capsys.readouterr().out
    assert "no-violation-found" in out
    report = json.loads((tmp_path / "quadrant-cubic.oracle.json").read_text())
    assert report["passed"]
    assert report["manifest"]["hash"]


def test_verify_negative_definite_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.lyap"
    bad.write_text(json.dumps({"lyapunov": {
        "1": "-x1^2 - x2^2", "2": "-x1^2 - x2^2"}}))
    assert run(["verify", QUAD, str(bad)], tmp_path) == 4
    assert "violated-at(" in capsys.readouterr().out


def test_verify_non_finite_values_write_strict_json(tmp_path, capsys):
    # V overflows to inf near the box edge, so its lie derivatives give nan
    # and the continuity difference inf - inf
    big = tmp_path / "big.lyap"
    big.write_text(json.dumps({"lyapunov": {
        "1": "1e308*x1^6 + x2^2", "2": "1e308*x1^6 + x2^2"}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", QUAD, str(big)], tmp_path) == 4

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "quadrant-cubic.oracle.json").read_text(),
                        parse_constant=reject)
    worst = [r["worst_violation"] for r in report["conditions"]]
    assert "nan" in worst and "inf" in worst and "-inf" in worst
    nan_record = next(r for r in report["conditions"]
                      if r["worst_violation"] == "nan")
    assert report["verdict"] == f"violated-at{tuple(nan_record['worst_point'])}"


def test_verify_positivity_is_against_v_at_the_origin(tmp_path, capsys):
    # 5 - x1^2 >= 4 on [-1, 1] but falls below V(0) = 5 off the origin
    lyap = tmp_path / "five.lyap"
    lyap.write_text(json.dumps({"lyapunov": {"1": "5 - x1^2"}}))
    assert run(["verify", "systems/unstable-scalar.sys", str(lyap)],
               tmp_path) == 4
    assert "[FAIL] positivity   region 1" in capsys.readouterr().out
    # a constant V(0) alone is no violation: 5 + x1^2 - 5 is positive
    lyap.write_text(json.dumps({"lyapunov": {"1": "5 + x1^2"}}))
    run(["verify", "systems/unstable-scalar.sys", str(lyap)], tmp_path)
    assert "[pass] positivity   region 1" in capsys.readouterr().out


def test_verify_origin_regions_must_agree_on_v0(tmp_path, capsys):
    lyap = tmp_path / "split.lyap"
    lyap.write_text(json.dumps({"lyapunov": {
        "1": "x1^2 + x2^2", "2": "0.5 + x1^2 + x2^2"}}))
    out = tmp_path / "out"
    assert run(["verify", QUAD, str(lyap)], out) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {lyap}: origin regions 1 and 2 disagree on V(0): "
                   f"0.0 and 0.5\n")
    assert not out.exists()


def test_verify_wrong_region_count(tmp_path):
    bad = tmp_path / "short.lyap"
    bad.write_text(json.dumps({"lyapunov": {"1": "x1^2"}}))
    assert run(["verify", QUAD, str(bad)], tmp_path) == 1


def test_simulate_x0_outside_box(tmp_path):
    assert run(["simulate", QUAD, "--x0", "9,9"], tmp_path) == 1


def test_simulate_off_simplex_theta(tmp_path):
    assert run(["simulate", QUAD, "--x0", "1,1", "--theta", "0.6,0.6"],
               tmp_path) == 1


def test_simulate_sweep_compiles_region_2_kernel_once(tmp_path, monkeypatch):
    # kernels are compiled once per field shape: region 2 has one vertex, so
    # every theta run steps the same field, and the three interior theta give
    # region 1 one shape with different coefficients; counted in _compile
    # with the shape cache emptied.  Kernels are shared within a process, so
    # the sweep runs on one worker.
    from swsos import _kernels
    one_cpu(monkeypatch)
    from swsos.system import load_system
    sys_ = load_system(QUAD)
    chis = [b.chi._term_list() for b in sys_.boundaries]

    def smooth_kernel(rid, theta):
        return _kernels.smooth_kernel(
            [p._term_list() for p in sys_.field_at(rid, theta)], chis)

    compiled = []
    compile_lines = _kernels._compile

    def counting(lines):
        compiled.append(lines)
        return compile_lines(lines)

    monkeypatch.setattr(_kernels, "_CODES", {})
    monkeypatch.setattr(_kernels, "_compile", counting)
    assert run(["simulate", QUAD, "--x0", "2,-2", "--t-end", "0.5",
                "--theta-sweep", "0,0.25,0.5,0.75,1"], tmp_path) == 0
    text = {f.name.split("__")[1]: f.read_text()
            for f in tmp_path.glob("*.trajectory.tsv")}
    assert len(text) == 5 and all("\tsmooth:2\t" in t for t in text.values())
    assert all("\tsmooth:1\t" in text[f"theta{v:g}.trajectory.tsv"]
               for v in (0, 0.25, 0.5, 0.75))
    # region 2, region 1 at theta 0 and at the interior theta, and the
    # sliding kernel of the theta = 1 run: one compile each
    assert len(compiled) == len(_kernels._CODES) == 4
    region_2 = smooth_kernel(2, (1.0,))
    interior = [smooth_kernel(1, (v, 1.0 - v)) for v in (0.25, 0.5, 0.75)]
    assert len(compiled) == 4           # the sweep compiled these already
    assert len({k.__code__ for k in interior}) == 1
    assert region_2.__code__ is not interior[0].__code__


def one_cpu(monkeypatch, cpus=1):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SWEEP5 = ["simulate", QUAD, "--x0", "2,-2", "--t-end", "0.5",
          "--theta-sweep", "0,0.25,0.5,0.75,1", "--certificate", PUBLISHED_V]


class SweepRunFailed(Exception):
    pass


class TwoArgError(Exception):
    # pickles, but cannot be unpickled: args holds one value, __init__ wants two
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def fail_at(monkeypatch, failures):
    """Make cli.simulate call failures[v]() for the sweep value v."""
    from swsos import cli
    real = cli.simulate

    def simulate(sys_, x0, cfg, certificate=None):
        v = cfg.theta[1][0]
        if v in failures:
            failures[v]()
        return real(sys_, x0, cfg, certificate=certificate)

    monkeypatch.setattr(cli, "simulate", simulate)


def raiser(exc):
    def go():
        raise exc
    return go


def test_sweep_workers_write_what_one_worker_writes(tmp_path, monkeypatch,
                                                    capsys):
    # 5 values on 1 and on 3 workers: the same file bytes and the same stdout,
    # and 3 workers fork twice
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out = {}
    for cpus in (1, 3):
        # one out dir for both: it is part of the manifest hash
        one_cpu(monkeypatch, cpus)
        assert run(SWEEP5, tmp_path) == 0
        files = sorted(tmp_path.glob("*.trajectory.tsv"))
        out[cpus] = (capsys.readouterr().out,
                     [(f.name, f.read_bytes()) for f in files])
        for f in files:
            f.unlink()
    assert len(forks) == 2
    assert out[1] == out[3] and len(out[1][1]) == 5
    lines = out[1][0].splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"quadrant-cubic__theta{v}.trajectory.tsv"
        for v in ("0", "0.25", "0.5", "0.75", "1")]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_failure_in_a_worker_reaches_the_caller(tmp_path, monkeypatch,
                                                      capsys, cpus):
    # on 3 workers theta 0.25 runs in the first child, theta 0.5 in the
    # second and theta 0.75 in this process: the first failing value in sweep
    # order wins, with its type and message, after the lines of the values
    # before it, and the files left are those of a serial sweep (theta 0.5's,
    # written by the second child, is removed)
    one_cpu(monkeypatch, cpus)
    fail_at(monkeypatch, {0.25: raiser(SweepRunFailed("theta 0.25 failed")),
                          0.75: raiser(KeyError("theta 0.75"))})
    with pytest.raises(SweepRunFailed, match="^theta 0.25 failed$"):
        run(SWEEP5, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "quadrant-cubic__theta0.trajectory.tsv"]
    assert sorted(f.name for f in tmp_path.glob("*.tsv")) == [
        "quadrant-cubic__theta0.trajectory.tsv"]
    assert_no_child_left()


def test_sweep_failure_that_does_not_unpickle_is_a_runtime_error(
        tmp_path, monkeypatch):
    one_cpu(monkeypatch, 3)
    fail_at(monkeypatch, {0.5: raiser(TwoArgError("theta", 0.5))})
    with pytest.raises(RuntimeError, match=r"^TwoArgError\('theta 0.5'\)$"):
        run(SWEEP5, tmp_path)
    assert_no_child_left()


def test_sweep_worker_that_dies_is_a_runtime_error(tmp_path, monkeypatch):
    # the second child runs theta 0.5 alone and exits 7 without a payload
    one_cpu(monkeypatch, 3)
    parent = os.getpid()

    def die():
        assert os.getpid() != parent
        os._exit(7)

    fail_at(monkeypatch, {0.5: die})
    with pytest.raises(RuntimeError, match=r"\['theta0.5'\] exited with "
                                           r"status 7 and no result"):
        run(SWEEP5, tmp_path)
    assert_no_child_left()


@pytest.mark.parametrize("args", [
    ["--theta", "0.5,0.5"], [], ["--theta-sweep", "0.5"]],
    ids=["theta", "default-theta", "one-value-sweep"])
def test_single_runs_never_fork(tmp_path, monkeypatch, args):
    one_cpu(monkeypatch, 3)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["simulate", QUAD, "--x0", "2,-2", "--t-end", "0.2", *args],
               tmp_path) == 0
    assert len(list(tmp_path.glob("*.trajectory.tsv"))) == 1


def test_simulate_summary_of_a_converged_run_is_inside_the_ball(tmp_path,
                                                               capsys):
    # the summary's ||x|| is the ball test's norm, so a run that stops as
    # converged reads at most the ball radius
    assert run(["simulate", "systems/branicky-a.sys", "--x0", "0.05,0.05",
                "--t-end", "5"], tmp_path) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "final event converged" in line
    assert float(line.rsplit("||x||=", 1)[1]) <= 1.000e-04


def test_simulate_sweep_writes_one_file_per_value(tmp_path, capsys):
    code = run(["simulate", QUAD, "--x0", "1,1", "--t-end", "0.5",
                "--theta-sweep", "0,0.5,1", "--certificate", PUBLISHED_V],
               tmp_path)
    assert code == 0
    files = sorted(tmp_path.glob("*.trajectory.tsv"))
    assert len(files) == 3
    head = files[0].read_text().splitlines()
    assert head[0].startswith("# manifest ")
    assert "psi" in head[1].split("\t")


@pytest.mark.parametrize("args, message", [
    (["simulate", QUAD, "--x0", "1,1", "--theta", "1,0",
      "--theta-sweep", "0.5"],
     "--theta and --theta-sweep cannot be given together"),
    (["simulate", QUAD, "--x0", "1,1", "--theta-sweep", "0,0.5,0.50"],
     "--theta-sweep values '0.5' and '0.50' both write the file label theta0.5"),
    (["simulate", OPPOSING, "--x0", "0.3,0.5", "--theta-sweep", "0,1"],
     "no region has 2 vertices"),
], ids=["theta-and-sweep", "sweep-shared-label", "sweep-no-two-vertex-region"])
def test_simulate_theta_flag_misuse_is_input_error(tmp_path, capsys, args,
                                                   message):
    assert run(args, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())     # nothing was written


@pytest.mark.parametrize("args", [
    ["simulate", QUAD, "--x0", "1,1", "--step", "0"],
    ["simulate", QUAD, "--x0", "1,1", "--t-end", "-1"],
    ["simulate", QUAD, "--x0", "1,1", "--step", "nan"],
    ["simulate", QUAD, "--x0", "1,1", "--t-end", "inf"],
    ["simulate", QUAD, "--x0", "1,1", "--theta-sweep", "1.5"],
    ["simulate", QUAD, "--x0", "1,1", "--theta", "0.5,0.5000000001"],
    ["simulate", QUAD, "--x0", "1,1", "--theta", "nan,0.5"],
    ["simulate", QUAD, "--x0", "1,1", "--theta", "inf,-inf"],
    ["certify", QUAD, "--degree", "5"],
    ["--tolerance", "0", "certify", QUAD],
    ["--tolerance", "nan", "verify", QUAD, PUBLISHED_V],
    ["--tolerance", "inf", "verify", QUAD, PUBLISHED_V],
    ["--seed", "-1", "verify", QUAD, PUBLISHED_V],
    ["--seed", "-1", "validate", QUAD],
    ["--seed", "-1", "certify", QUAD],
], ids=["step-0", "t-end-negative", "step-nan", "t-end-inf",
        "sweep-off-simplex", "theta-near-simplex", "theta-nan", "theta-inf",
        "odd-degree", "tolerance-0",
        "tolerance-nan", "tolerance-inf",
        "verify-seed-negative", "validate-seed-negative", "certify-seed-negative"])
def test_rejected_option_values_are_input_errors(tmp_path, capsys, args):
    assert run(args, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not list(tmp_path.iterdir())     # nothing was written


@pytest.mark.parametrize("flag", ["--theta", "--theta-sweep", "--certificate"])
def test_simulate_empty_flag_value_is_input_error(tmp_path, capsys, flag):
    # an empty value used to count as an absent flag: the run went at the
    # default theta, without a certificate, and exited 0
    assert run(["simulate", QUAD, "--x0", "1,1", "--t-end", "0.01", flag, ""],
               tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, bad", [
    (["validate"], "dir"),
    (["validate"], "latin1"),
    (["verify", QUAD], "dir"),
    (["verify", QUAD], "latin1"),
], ids=["validate-directory", "validate-not-utf8", "verify-directory",
        "verify-not-utf8"])
def test_unreadable_input_file_is_input_error(tmp_path, capsys, command, bad):
    # a directory or a file that is not UTF-8 used to end in a traceback
    # (IsADirectoryError, UnicodeDecodeError)
    path = tmp_path / "in"
    if bad == "dir":
        path.mkdir()
    else:
        path.write_bytes('{"lyapunov": "\u00e9"}'.encode("latin-1"))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), *command, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read: ")
    assert not out.exists()


@pytest.mark.parametrize("box", [
    [[float("nan"), 2.0], [-2.0, 2.0]],
    [[-2.0, float("inf")], [-2.0, 2.0]],
], ids=["nan-lo", "inf-hi"])
@pytest.mark.parametrize("command", [
    ["validate"],
    ["certify", "--degree", "2"],
    ["verify"],
    ["simulate", "--x0=0.3,0.5", "--t-end", "1"],
], ids=["validate", "certify", "verify", "simulate"])
def test_non_finite_box_is_input_error(tmp_path, capsys, box, command):
    doc = json.loads(Path("systems/opposing-fields.sys").read_text())
    doc["box"] = box
    bad = tmp_path / "in" / "bad.sys"
    bad.parent.mkdir()
    bad.write_text(json.dumps(doc))
    lyap = tmp_path / "in" / "v.lyap"
    lyap.write_text(json.dumps({"lyapunov": {"1": "x1^2 + x2^2",
                                             "2": "x1^2 + x2^2"}}))
    args = [*command[:1], str(bad), *command[1:]]
    if command[0] == "verify":
        args.append(str(lyap))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), *args]) == 1
    assert capsys.readouterr().err.startswith("error: box must be ")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["validate"],
    ["certify", "--degree", "4"],
    ["verify", PUBLISHED_V],
    ["simulate", "--x0=1,1", "--t-end", "0.5"],
], ids=["validate", "certify", "verify", "simulate"])
def test_origin_region_that_names_no_region_is_input_error(tmp_path, capsys,
                                                           command):
    # origin region 3 of a two-region system used to end validate, certify
    # and verify in a KeyError traceback
    doc = json.loads(Path(QUAD).read_text())
    doc["origin_regions"] = [1, 2, 3]
    bad = tmp_path / "in" / "bad.sys"
    bad.parent.mkdir()
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), command[0], str(bad),
                 *command[1:]]) == 1
    assert capsys.readouterr().err == "error: origin region 3 is not a region\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["certify", QUAD, "--degree", "2"],
    ["verify", QUAD, PUBLISHED_V],
    ["simulate", QUAD, "--x0=1,1", "--t-end", "0.5"],
], ids=["certify", "verify", "simulate"])
def test_out_dir_that_is_a_file_is_input_error(tmp_path, capsys, command):
    # a regular file as --out-dir used to end in a FileExistsError
    # traceback, after certify and verify had run their whole pipeline
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert main(["--out-dir", str(out), *command]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: --out-dir {out}: cannot create: ")
    assert out.read_text() == "not a directory\n"


def test_certify_system_failing_validation_is_input_error(tmp_path, capsys):
    # a region witness outside its region used to end certify in a
    # ValueError traceback
    doc = json.loads(Path(OPPOSING).read_text())
    doc["regions"][0]["witness"] = [0.0, -1.0]
    bad = tmp_path / "bad.sys"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["certify", str(bad), "--degree", "2"], out) == 1
    assert capsys.readouterr().err == (
        "error: system validation failed: ['region[1].witness']\n")
    # found before --out-dir is created, as the input errors of loading are
    assert not out.exists()


def test_certify_with_a_stalled_solve_exits_suspect(tmp_path, capsys, monkeypatch):
    from importlib import import_module

    from swsos.backend import NUMERICAL_ERROR, SdpSolution
    from swsos.cli import EXIT_SUSPECT
    certify_module = import_module("swsos.certify")   # the attribute is the function
    monkeypatch.setattr(certify_module, "solve", lambda problem: SdpSolution(
        status=NUMERICAL_ERROR, solver_status="native:stalled:7"))
    assert run(["certify", "systems/unstable-scalar.sys", "--degree", "2"],
               tmp_path) == EXIT_SUSPECT == 3
    assert capsys.readouterr().out.startswith(
        "numerically-suspect: solver failure: native:stalled:7\n")
    doc = json.loads((tmp_path / "unstable-scalar.certificate.json").read_text())
    assert doc["status"] == "numerically-suspect"


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"lyapunov": {"1": 5, "2": "x1^2 + x2^2"}},
    {"lyapunov": {"1": "x1^2 + x2^2", "2": "x1^2 + x2^2"},
     "attractive_pairs": 5},
    {"lyapunov": {"1": "x1^2 + x2^2", "2": "x1^2 + x2^2"},
     "attractive_pairs": [[1, 2, 3]]},
    {"lyapunov": {"1": "x1^2 + x2^2", "2": "x1^2 + x2^2"},
     "attractive_pairs": [["1", "2"]]},
    {"lyapunov": {"1": "x1^2 + x2^2", "2": "x1^2 + x2^2"},
     "attractive_pairs": [[1, 3]]},
], ids=["top-level-list", "entry-not-string", "pairs-not-list",
        "pair-of-three", "pair-of-strings", "pair-not-a-boundary"])
def test_verify_malformed_lyapunov_file_is_input_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.lyap"
    bad.write_text(json.dumps(doc))
    assert run(["verify", QUAD, str(bad)], tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("order", [("1", "01"), ("01", "1")])
@pytest.mark.parametrize("command", [
    ["verify", QUAD],
    ["simulate", QUAD, "--x0", "1,1", "--t-end", "0.5", "--certificate"],
], ids=["verify", "simulate"])
def test_duplicate_region_keys_are_input_errors(tmp_path, capsys, command, order):
    # "1" and "01" both name region 1: whichever came later used to replace
    # the other, so swapping them changed verify's verdict
    table = {"1": "-x1^2 - x2^2", "01": "x1^2 + x2^2"}
    lyap = tmp_path / "dup.lyap"
    lyap.write_text(json.dumps({"lyapunov": {
        **{k: table[k] for k in order}, "2": "x1^2 + x2^2"}}))
    assert run([*command, str(lyap)], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lyap}: entries {order[0]!r} and "
                          f"{order[1]!r} both name region 1")
    assert not list(tmp_path.glob("*.oracle.json"))
    assert not list(tmp_path.glob("*.trajectory.tsv"))


@pytest.mark.parametrize("pairs, lie_boundary", [([[2, 1]], 3), ([], 0)],
                         ids=["reversed-pair", "no-pairs"])
def test_verify_accepts_declared_pairs(tmp_path, capsys, pairs, lie_boundary):
    doc = json.loads(Path(PUBLISHED_V).read_text())
    doc["attractive_pairs"] = pairs
    lyap = tmp_path / "pairs.lyap"
    lyap.write_text(json.dumps(doc))
    assert run(["verify", QUAD, str(lyap)], tmp_path) == 0
    assert capsys.readouterr().out.count("lie_boundary") == lie_boundary


def test_verify_reads_the_lyapunov_file_once(tmp_path, monkeypatch, capsys):
    from pathlib import Path
    doc = json.loads(Path(PUBLISHED_V).read_text())
    doc["attractive_pairs"] = [[1, 2]]
    lyap = tmp_path / "pairs.lyap"
    lyap.write_text(json.dumps(doc))
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        if Path(self) == lyap:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    assert run(["verify", QUAD, str(lyap)], tmp_path) == 0
    assert "no-violation-found" in capsys.readouterr().out
    assert len(reads) == 1


def test_attractivity_known_pairs(tmp_path, capsys):
    assert run(["attractivity", "systems/opposing-fields.sys",
                "--pair", "1,2"], tmp_path) == 0
    assert "attractive_possible" in capsys.readouterr().out
    assert run(["attractivity", QUAD, "--pair", "1,2"], tmp_path) == 0
    assert "not_attractive" in capsys.readouterr().out


def test_certify_has_no_attractivity_filter_option(capsys):
    # certify always runs the attractivity test: the option that skipped
    # it is gone, and naming it is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["certify", QUAD, "--no-attractivity-filter"])
    assert exc.value.code == 1
    assert ("unrecognized arguments: --no-attractivity-filter"
            in capsys.readouterr().err)


def test_readme_command_lines_parse(capsys):
    # every swsos line of README's sh blocks parses, without running, and
    # every subcommand shows in one: an option removed from the parser but
    # left in the docs fails here
    import argparse
    import re
    import shlex

    from swsos.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    parser = build_parser()
    commands = set()
    for line in lines:
        if line.startswith("swsos "):
            try:
                commands.add(parser.parse_args(shlex.split(line)[1:]).command)
            except SystemExit:
                pytest.fail(f"README: {line}: {capsys.readouterr().err}")
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert commands == set(subparsers.choices)


def test_attractivity_unknown_pair(tmp_path):
    assert run(["attractivity", QUAD, "--pair", "1,9"], tmp_path) == 1
    assert run(["attractivity", QUAD, "--pair", "zzz"], tmp_path) == 1


def test_certify_unstable_scalar_exit_2(tmp_path):
    assert run(["certify", "systems/unstable-scalar.sys", "--degree", "2"],
               tmp_path) == 2
    doc = json.loads(
        (tmp_path / "unstable-scalar.certificate.json").read_text())
    assert doc["status"] == "no-certificate-at-degree"


def test_certify_verify_round_trip(tmp_path, capsys):
    # a certificate file written by certify is accepted by verify, exit 0
    code = run(["certify", "systems/quadrant-cubic.sys", "--degree", "4"],
               tmp_path)
    assert code == 0
    cert_file = tmp_path / "quadrant-cubic.certificate.json"
    assert run(["verify", QUAD, str(cert_file)], tmp_path) == 0


def test_manifest_hash_is_reproducible(tmp_path):
    run(["verify", QUAD, PUBLISHED_V], tmp_path)
    first = json.loads((tmp_path / "quadrant-cubic.oracle.json").read_text())
    run(["verify", QUAD, PUBLISHED_V], tmp_path)
    second = json.loads((tmp_path / "quadrant-cubic.oracle.json").read_text())
    assert first["manifest"]["hash"] == second["manifest"]["hash"]
    assert first["conditions"] == second["conditions"]


def test_import_loads_neither_scipy_nor_cvxpy():
    # a fresh interpreter, so imports made by other tests cannot mask one
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, swsos; "
            "print(sorted(m for m in ('scipy', 'cvxpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_main_reuses_its_parser_across_calls(tmp_path, capsys):
    # a verify and then a simulate in one process print what each prints in
    # a fresh process, and an argparse error after them is unchanged too
    import os
    import subprocess
    import sys
    from pathlib import Path

    calls = [["--out-dir", str(tmp_path), "verify", QUAD, PUBLISHED_V],
             ["--out-dir", str(tmp_path), "simulate", QUAD, "--x0=1,1",
              "--t-end", "0.5"],
             ["simulate", QUAD]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    fresh = [subprocess.run([sys.executable, "-m", "swsos.cli", *argv],
                            capture_output=True, text=True, env=env)
             for argv in calls]
    for argv, ref in zip(calls[:2], fresh):
        assert main(argv) == ref.returncode == 0
        assert capsys.readouterr().out == ref.stdout
    with pytest.raises(SystemExit) as exc:
        main(calls[2])
    assert exc.value.code == fresh[2].returncode == 1
    assert capsys.readouterr().err == fresh[2].stderr


@pytest.mark.parametrize("argv", [
    ["certify", QUAD, "--degree", "abc"],
    ["certify"],
    ["frobnicate"],
], ids=["degree-abc", "no-system", "unknown-command"])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is certify's "no certificate at the degree", not a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: swsos certify")


@pytest.mark.parametrize("name, text, message", [
    ("missing.json", None, ": no such file"),
    ("bad.json", '{"lyapunov": }', ":1:14: Expecting value"),
    ("notable.json", '{"certificate": {}}', ": missing 'lyapunov' table"),
], ids=["missing", "malformed-json", "no-table"])
def test_verify_unusable_lyapunov_file_is_input_error(tmp_path, capsys, name,
                                                      text, message):
    lyap = tmp_path / name
    if text is not None:
        lyap.write_text(text)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "verify", QUAD, str(lyap)]) == 1
    assert capsys.readouterr().err == f"error: {lyap}{message}\n"
    assert not out.exists()


def test_simulate_x0_of_the_wrong_length_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "simulate", QUAD, "--x0=1,1,1"]) == 1
    assert capsys.readouterr().err == "error: --x0 needs 2 coordinates\n"
    assert not out.exists()


def test_verify_prints_the_oracle_warnings(tmp_path, capsys, monkeypatch):
    # a ball wider than the box leaves nothing to sample: verify still
    # passes, and says why on its warning lines
    from swsos import oracle
    monkeypatch.setattr(oracle, "EXCLUSION_RADIUS", 10.0)
    assert run(["verify", QUAD, PUBLISHED_V], tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("warning: ")] == [
        "warning: region 1: zero sample survivors",
        "warning: region 2: zero sample survivors",
        "warning: boundary (1,2): no boundary witness found"]
    assert "verdict: no-violation-found" in lines
