"""Certifier pipeline tests on systems small enough for fast SDP solves.

The full degree-6 uncertain-system run lives in test_acceptance.py; here
the pipeline is exercised end to end on 1-D systems and the pre-filter and
assembly logic on the shipped 2-D examples.
"""

import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import swsos.certify as certify_module
from swsos.backend import (FEASIBLE, INFEASIBLE, NUMERICAL_ERROR, SdpSolution,
                           svec_layout)
from swsos.certify import (ATTRACTIVE, CERTIFIED, GLUE_RESIDUAL_TOL,
                           NO_CERTIFICATE, NOT_ATTRACTIVE, SUSPECT, Certificate,
                           CertificationConfig, build_feasibility, certify,
                           check_attractivity)
from swsos.cli import main
from swsos.oracle import OracleReport, verify_certificate
from swsos.poly import lie_derivative, parse_polynomial
from swsos.system import load_system, parse_system

from oracle_corpus import half_spaces_3d
from program_corpus import problem_digest


def _scalar_system(field_expr):
    return parse_system({
        "dimension": 1,
        "box": [[-1.0, 1.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [0.5]}],
        "boundaries": [],
        "dynamics": {"1": [[field_expr]]},
        "origin_regions": [1],
    })


def test_config_validation():
    with pytest.raises(ValueError):
        CertificationConfig(lyapunov_degree=3)
    with pytest.raises(ValueError):
        CertificationConfig(lyapunov_degree=0)
    # the margins are the constant certify.MARGIN
    assert [f.name for f in fields(CertificationConfig)] == ["lyapunov_degree"]


def test_certify_stable_scalar_degree2(small_oracle):
    cert = certify(_scalar_system("-x1"),
                   CertificationConfig(lyapunov_degree=2))
    assert cert.status == CERTIFIED
    V = cert.lyapunov[1]
    assert V((0.5,)) > 0
    assert cert.sos_evidence is not None
    # V' * (-x) must actually be negative away from 0
    lie = lie_derivative(V, _scalar_system("-x1").field_at(1, (1.0,)))
    assert lie((0.5,)) < 0


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_certify_unstable_scalar_no_certificate(unstable_system, small_oracle,
                                                degree):
    cert = certify(unstable_system, CertificationConfig(lyapunov_degree=degree))
    assert cert.status == NO_CERTIFICATE
    assert str(degree) in cert.detail


def test_solver_failure_is_suspect(monkeypatch):
    monkeypatch.setattr(certify_module, "solve", lambda problem: SdpSolution(
        status=NUMERICAL_ERROR, solver_status="native:stalled:7"))
    cert = certify(_scalar_system("-x1"), CertificationConfig(lyapunov_degree=2))
    assert cert.status == SUSPECT
    assert cert.detail == "solver failure: native:stalled:7"
    assert cert.lyapunov == {} and cert.oracle_report is None


def test_oracle_violation_after_a_feasible_solve_is_suspect(monkeypatch,
                                                            small_oracle):
    # the oracle, not the solve, refutes the certificate: here it samples
    # -V, which is negative everywhere but at the origin
    verify = certify_module.verify_certificate
    monkeypatch.setattr(
        certify_module, "verify_certificate",
        lambda sys_, lyapunov, cfg, attractive_pairs: verify(
            sys_, {rid: -V for rid, V in lyapunov.items()}, cfg,
            attractive_pairs=attractive_pairs))
    cert = certify(_scalar_system("-x1"), CertificationConfig(lyapunov_degree=2))
    assert cert.status == SUSPECT
    assert not cert.oracle_report.passed
    assert cert.detail == f"oracle: {cert.oracle_report.verdict}"
    assert re.fullmatch(r"oracle: violated-at\(\S+,\)", cert.detail)
    assert max(cert.glue_residuals.values(), default=0.0) <= GLUE_RESIDUAL_TOL


def test_glue_residual_above_tolerance_is_suspect(monkeypatch, quadrant_system,
                                                  small_oracle):
    # the solve returns gluing multipliers 1e-3 off in every coefficient:
    # the Lyapunov pieces pass the oracle, but V_i + p_ij chi_ij = V_j fails
    real_solve = certify_module.solve

    def solve_off_glue(problem):
        sol = real_solve(problem)
        for name in sol.scalar_values:
            if name.startswith("p"):
                sol.scalar_values[name] += 1e-3
        return sol

    monkeypatch.setattr(certify_module, "solve", solve_off_glue)
    cert = certify(quadrant_system, CertificationConfig(lyapunov_degree=4))
    assert cert.status == SUSPECT
    assert cert.detail == "gluing residual above tolerance"
    assert cert.oracle_report.passed
    assert min(cert.glue_residuals.values()) > GLUE_RESIDUAL_TOL


def test_oracle_report_is_a_field():
    report = OracleReport()
    cert = Certificate(status=SUSPECT, oracle_report=report)
    assert replace(cert, status=CERTIFIED).oracle_report is report


def test_certify_raises_on_invalid_system():
    doc = {
        "dimension": 1,
        "box": [[-1.0, 1.0]],
        "regions": [{"id": 1, "chi": "0", "xi": ["-x1"], "witness": [0.5]}],
        "boundaries": [],
        "dynamics": {"1": [["-x1"]]},
        "origin_regions": [1],
    }
    with pytest.raises(ValueError, match="validation failed"):
        certify(parse_system(doc))


def test_attractivity_statuses(quadrant_system, opposing_system, systems_dir):
    aligned = load_system(systems_dir / "aligned-fields.sys")
    assert check_attractivity(opposing_system, (1, 2)) == ATTRACTIVE
    assert check_attractivity(aligned, (1, 2)) == NOT_ATTRACTIVE
    # the quadrant system's axes cannot host sliding: the normal component
    # product vanishes identically on the variety
    assert check_attractivity(quadrant_system, (1, 2)) == NOT_ATTRACTIVE
    # on x2 = 0.1*x1 the normal components have opposite signs for
    # x1 > -1.8 and the same sign below: the boundary attracts on part of
    # the variety, so sliding is not ruled out
    tilted = load_system(systems_dir / "tilted-relay.sys")
    assert check_attractivity(tilted, (1, 2)) == ATTRACTIVE


@pytest.mark.parametrize("status, solver_status", [
    (FEASIBLE, "native:inaccurate:40"),
    (NUMERICAL_ERROR, "native:stalled:9:primal 1.0e-03 dual 1.0e-09"),
    (INFEASIBLE, "native:infeasible:12"),
], ids=["inaccurate", "stalled", "infeasible"])
def test_attractivity_needs_an_optimal_solve(monkeypatch, quadrant_system,
                                             status, solver_status):
    # only a clean optimal solve rules sliding out; an inaccurate one may be
    # a nearly feasible program of a boundary that does attract
    monkeypatch.setattr(certify_module, "solve", lambda problem: SdpSolution(
        status=status, solver_status=solver_status))
    assert check_attractivity(quadrant_system, (1, 2)) == ATTRACTIVE
    monkeypatch.setattr(certify_module, "solve", lambda problem: SdpSolution(
        status=FEASIBLE, solver_status="native:optimal:9"))
    assert check_attractivity(quadrant_system, (1, 2)) == NOT_ATTRACTIVE


# certify's verdict on every shipped system at degrees 2, 4 and 6.
# tilted-relay is unstable (its sliding motion leaves the origin); it was
# CERTIFIED at every degree while the attractivity test dropped the cross
# conditions of its attracting boundary.
VERDICTS = {
    "aligned-fields": (CERTIFIED, CERTIFIED, CERTIFIED),
    "branicky-a": (CERTIFIED, CERTIFIED, CERTIFIED),
    "opposing-fields": (NO_CERTIFICATE, NO_CERTIFICATE, NO_CERTIFICATE),
    "quadrant-cubic": (NO_CERTIFICATE, CERTIFIED, CERTIFIED),
    "tilted-relay": (NO_CERTIFICATE, SUSPECT, SUSPECT),
    "twisting": (NO_CERTIFICATE, CERTIFIED, CERTIFIED),
    "unstable-scalar": (NO_CERTIFICATE, NO_CERTIFICATE, NO_CERTIFICATE),
}


def test_verdicts_cover_every_shipped_system(systems_dir):
    assert sorted(VERDICTS) == sorted(p.stem for p in systems_dir.glob("*.sys"))


@pytest.mark.parametrize("name, degree, verdict", [
    (name, degree, verdict) for name, row in VERDICTS.items()
    for degree, verdict in zip((2, 4, 6), row)])
def test_shipped_system_verdicts(systems_dir, small_oracle, name, degree,
                                 verdict):
    sys_ = load_system(systems_dir / f"{name}.sys")
    cert = certify(sys_, CertificationConfig(lyapunov_degree=degree))
    assert cert.status == verdict, cert.detail


def test_tilted_relay_is_not_certified_at_degree_8(systems_dir, small_oracle):
    sys_ = load_system(systems_dir / "tilted-relay.sys")
    cert = certify(sys_, CertificationConfig(lyapunov_degree=8))
    assert cert.status != CERTIFIED
    assert cert.attractive_pairs == [(1, 2)]


def test_attractivity_unknown_pair(quadrant_system):
    with pytest.raises(KeyError):
        check_attractivity(quadrant_system, (1, 9))


def test_build_feasibility_structure(quadrant_system):
    cfg = CertificationConfig(lyapunov_degree=4)
    problem, plan = build_feasibility(quadrant_system, cfg)
    ids = [c.cid for c in plan["constraints"]]
    # 2 pd + 3 lie (region 1 has two vertices) + cross for both orders
    assert ids.count("pd1") == 1 and ids.count("pd2") == 1
    assert sum(1 for c in ids if c.startswith("lie1")) == 2
    assert sum(1 for c in ids if c.startswith("lie2")) == 1
    assert any(c.startswith("cross1_2") for c in ids)
    assert any(c.startswith("cross2_1") for c in ids)
    # origin regions have no constant term in the V ansatz
    assert ("0,0" not in
            {v.split("[")[1][:-1] for v in plan["V"][1].variables()})
    # trace objective: one entry per svec column, 1 on every diagonal
    # column, 0 everywhere else
    layout, nx = svec_layout(problem.psd_blocks)
    assert problem.c.shape == (nx,)
    diagonal = np.zeros(nx, dtype=bool)
    for _, _, sl, i, j in layout:
        diagonal[sl] = i == j
    assert diagonal.sum() == sum(n for _, n in problem.psd_blocks)
    assert np.array_equal(problem.c, diagonal.astype(float))
    # the known part of each target is the fixed 1e-4 margin:
    # -1e-4*(x1^2 + x2^2 + x1^4 + x2^4) on pd, -1e-4*(x1^2 + x2^2)^2 otherwise
    floor = {(2, 0): -1e-4, (0, 2): -1e-4, (4, 0): -1e-4, (0, 4): -1e-4}
    margin = {(4, 0): -1e-4, (2, 2): -2e-4, (0, 4): -1e-4}
    for c in plan["constraints"]:
        known = {m: e[None] for m, e in c.as_linpoly().terms.items() if None in e}
        assert known == (floor if c.cid.startswith("pd") else margin), c.cid


def test_build_feasibility_filtered_cross_pairs(quadrant_system):
    cfg = CertificationConfig(lyapunov_degree=4)
    problem, plan = build_feasibility(quadrant_system, cfg, cross_pairs=[])
    assert not any(c.cid.startswith("cross") for c in plan["constraints"])


def test_cross_pairs_name_a_boundary_in_either_order_once(quadrant_system):
    # a reversed or repeated pair used to reorder the constraints or give
    # two PSD blocks one id
    cfg = CertificationConfig(lyapunov_degree=4)
    digests = {problem_digest(build_feasibility(quadrant_system, cfg,
                                                cross_pairs=pairs)[0])
               for pairs in ([(1, 2)], [(2, 1)], [(1, 2), (1, 2)],
                             [(2, 1), (1, 2)])}
    assert len(digests) == 1


@pytest.mark.parametrize("pairs", [None, [], [(2, 1)]],
                         ids=["every-pair", "no-pairs", "reversed-pair"])
@pytest.mark.parametrize("name", ["quadrant-cubic", "twisting", "half-spaces-3d"])
def test_one_condition_entry_names_the_constraint_and_the_record(
        systems_dir, small_oracle, name, pairs):
    if name == "half-spaces-3d":
        sys_, family = half_spaces_3d()
    else:
        sys_ = load_system(systems_dir / f"{name}.sys")
        family = {rid: parse_polynomial("x1^2 + x2^2", 2) for rid in sys_.regions}
    entries = sys_.conditions(pairs)
    _, plan = build_feasibility(sys_, CertificationConfig(lyapunov_degree=2),
                                cross_pairs=pairs)
    assert [c.cid for c in plan["constraints"]] == [
        e.cid for e in entries if e.kind != "continuity"]
    report = verify_certificate(sys_, family, attractive_pairs=pairs)
    # every boundary of these systems gets all its sample points, so every
    # entry has its record
    assert not [w for w in report.warnings if w.startswith("boundary")]
    assert [(r.condition, r.subject) for r in report.records] == [
        (e.kind, e.subject) for e in entries]


def test_gluing_identity_holds_for_quadrant_certificate(quadrant_system,
                                                        small_oracle):
    # degree-4 joint solve is quick enough for the unit suite
    cert = certify(quadrant_system, CertificationConfig(lyapunov_degree=4))
    assert cert.status == CERTIFIED
    assert max(cert.glue_residuals.values()) <= 1e-7
    b = quadrant_system.boundary(1, 2)
    x = np.array([0.3, 0.0])  # on the boundary variety
    v1, v2 = cert.lyapunov[1](x), cert.lyapunov[2](x)
    assert abs(v1 - v2) < 1e-9


@pytest.mark.parametrize("name", ["quadrant-cubic", "twisting"])
def test_glue_residuals_match_a_coefficient_by_coefficient_reference(
        systems_dir, small_oracle, name):
    # the residual of V_i + p_ij chi_ij = V_j is its largest coefficient
    # difference over the monomials of either side
    sys_ = load_system(systems_dir / f"{name}.sys")
    cert = certify(sys_, CertificationConfig(lyapunov_degree=4))
    expected = {}
    for b in sys_.boundaries:
        lhs = (cert.lyapunov[b.i] + cert.gluing[b.pair] * b.chi).terms
        rhs = cert.lyapunov[b.j].terms
        expected[b.pair] = max((abs(lhs.get(m, 0.0) - rhs.get(m, 0.0))
                                for m in set(lhs) | set(rhs)), default=0.0)
    assert expected and cert.glue_residuals == expected


def test_certificate_to_dict_round_trip_keys(quadrant_system, small_oracle):
    cert = certify(quadrant_system, CertificationConfig(lyapunov_degree=4))
    doc = cert.to_dict()
    for key in ("status", "lyapunov", "lyapunov_full", "gluing",
                "glue_residuals", "sos_evidence", "oracle_report"):
        assert key in doc
    assert doc["status"] == CERTIFIED
    # the margins are fixed, and the config block still records them, in
    # the same order
    assert list(doc["config"].items()) == [
        ("lyapunov_degree", 4), ("margin_mu", 1e-4), ("margin_nu", 1e-4),
        ("pd_epsilon", 1e-4)]


# one boundary that can slide, (1,2), and two that cannot, (1,3) and (2,3),
# in one partition: on x2 = 0 region 1's field points down and region 2's
# up, while region 3's field is tangent to x2 = 0 and every field is tangent
# to x1 = 0
MIXED = {
    "dimension": 2,
    "box": [[-2.0, 2.0], [-2.0, 2.0]],
    "regions": [
        {"id": 1, "chi": "0", "xi": ["x2"], "witness": [0.0, 1.0]},
        {"id": 2, "chi": "0", "xi": ["-x2", "x1"], "witness": [1.0, -1.0]},
        {"id": 3, "chi": "0", "xi": ["-x2", "-x1"], "witness": [-1.0, -1.0]},
    ],
    "boundaries": [
        {"i": 1, "j": 2, "chi_ij": "x2", "witness": [1.0, 0.0]},
        {"i": 1, "j": 3, "chi_ij": "x2", "witness": [-1.0, 0.0]},
        {"i": 2, "j": 3, "chi_ij": "x1", "witness": [0.0, -1.0]},
    ],
    "dynamics": {"1": [["-x1", "-1 - x2"]], "2": [["-x1", "1 - x2"]],
                 "3": [["-x1", "-x2"]]},
    "origin_regions": [1, 2, 3],
}


def test_only_the_sliding_boundary_keeps_cross_conditions(
        tmp_path, monkeypatch, capsys, small_oracle):
    sys_ = parse_system(MIXED)
    assert [check_attractivity(sys_, b.pair) for b in sys_.boundaries] == [
        ATTRACTIVE, NOT_ATTRACTIVE, NOT_ATTRACTIVE]
    system = tmp_path / "mixed.sys"
    system.write_text(json.dumps(MIXED))
    build, plans = certify_module.build_feasibility, []

    def recording_build(*args, **kwargs):
        problem, plan = build(*args, **kwargs)
        plans.append(plan)
        return problem, plan

    monkeypatch.setattr(certify_module, "build_feasibility", recording_build)
    assert main(["--out-dir", str(tmp_path), "certify", str(system),
                 "--degree", "2"]) == 0
    (plan,) = plans
    assert {c.cid.split("v")[0] for c in plan["constraints"]
            if c.cid.startswith("cross")} == {"cross1_2", "cross2_1"}
    doc = json.loads((tmp_path / "mixed.certificate.json").read_text())
    assert doc["status"] == CERTIFIED
    assert doc["attractive_pairs"] == [[1, 2]]
    subjects = [r["subject"] for r in doc["oracle_report"]["conditions"]
                if r["condition"] == "lie_boundary"]
    assert subjects == ["boundary (1,2), vertex 0", "boundary (2,1), vertex 0"]
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "verify", str(system),
                 str(tmp_path / "mixed.certificate.json")]) == 0
    assert re.findall(r"lie_boundary +(.*): worst",
                      capsys.readouterr().out) == subjects
