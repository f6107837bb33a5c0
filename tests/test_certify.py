"""Certifier pipeline tests on systems small enough for fast SDP solves.

The full degree-6 uncertain-system run lives in test_acceptance.py; here
the pipeline is exercised end to end on 1-D systems and the pre-filter and
assembly logic on the shipped 2-D examples.
"""

from dataclasses import fields, replace
from importlib import import_module

import numpy as np
import pytest

from swsos.backend import (FEASIBLE, INFEASIBLE, NUMERICAL_ERROR, SdpSolution,
                           svec_layout)
from swsos.certify import (ATTRACTIVE, CERTIFIED, NO_CERTIFICATE,
                           NOT_ATTRACTIVE, SUSPECT, Certificate,
                           CertificationConfig, build_feasibility, certify,
                           check_attractivity)
from swsos.oracle import OracleReport
from swsos.poly import lie_derivative
from swsos.system import load_system, parse_system


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
    assert [f.name for f in fields(CertificationConfig)] == [
        "lyapunov_degree", "use_attractivity_filter"]


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
    certify_module = import_module("swsos.certify")   # the attribute is the function
    monkeypatch.setattr(certify_module, "solve", lambda problem: SdpSolution(
        status=NUMERICAL_ERROR, solver_status="native:stalled:7"))
    cert = certify(_scalar_system("-x1"), CertificationConfig(lyapunov_degree=2))
    assert cert.status == SUSPECT
    assert cert.detail == "solver failure: native:stalled:7"
    assert cert.lyapunov == {} and cert.oracle_report is None


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
    certify_module = import_module("swsos.certify")
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
        ("pd_epsilon", 1e-4), ("use_attractivity_filter", True)]
