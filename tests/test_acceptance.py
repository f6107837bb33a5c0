"""End-to-end acceptance gate.

Each test covers one headline capability of the toolkit at its stated
tolerance and prints a single pass/fail line.  These run the full
pipelines (SDP solves, 50-second sweeps), so the module is noticeably
slower than the unit suites.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from swsos import sim
from swsos.certify import CERTIFIED, CertificationConfig, certify
from swsos.cli import _theta_table
from swsos.oracle import OracleConfig, verify_certificate, vertex_convexity_check
from swsos.poly import Polynomial, monomial_basis, parse_polynomial
from swsos.sim import SimConfig, simulate
from swsos.sos import (FEASIBLE, INFEASIBLE, GramRepresentation,
                       SosCertificate, extract_sos_split, sos_decompose)

SWEEP_THETAS = (0.0, 0.3, 0.5, 0.7, 1.0)
SWEEP_STARTS = ((2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0))


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def theta_sweep(quadrant_system, published_lyapunov):
    """All 20 corner-start trajectories, shared by the sweep criteria."""
    runs = []
    for th in SWEEP_THETAS:
        cfg = SimConfig(t_end=50.0, theta=_theta_table(quadrant_system, th))
        for x0 in SWEEP_STARTS:
            runs.append((th, x0, simulate(quadrant_system, x0, cfg,
                                          certificate=published_lyapunov)))
    return runs


def test_criterion_1_published_certificate_validates(quadrant_system,
                                                     published_lyapunov):
    # the published pair was fitted on [-2,2]^2, so the oracle samples there
    fitted = replace(quadrant_system,
                     box=(np.array([-2.0, -2.0]), np.array([2.0, 2.0])))
    t0 = time.perf_counter()
    report = verify_certificate(fitted, published_lyapunov, OracleConfig())
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 30.0
    _report(1, ok, f"verdict {report.verdict}, {elapsed:.1f}s")


def test_criterion_2_end_to_end_certification(quadrant_system):
    t0 = time.perf_counter()
    cert6 = certify(quadrant_system, CertificationConfig(lyapunov_degree=6))
    elapsed = time.perf_counter() - t0
    cert4 = certify(quadrant_system, CertificationConfig(lyapunov_degree=4))
    ok = cert6.status == CERTIFIED and elapsed < 300.0
    _report(2, ok, f"degree 6 {cert6.status} in {elapsed:.1f}s, "
                   f"degree 4 {cert4.status}")


def test_criterion_3_sweep_convergence(theta_sweep):
    misses = [(th, x0, float(np.linalg.norm(traj.final_state)))
              for th, x0, traj in theta_sweep
              if "converged" not in traj.event_kinds()]
    ok = not misses
    worst = max((m[2] for m in misses), default=0.0)
    _report(3, ok, f"{20 - len(misses)}/20 runs inside 1e-4 by t=50, "
                   f"largest final norm {worst:.2e}")


def test_criterion_4_psi_monotone_along_sweep(theta_sweep):
    violations = 0
    for _, _, traj in theta_sweep:
        psi = [p.psi for p in traj.points if p.psi is not None]
        violations += sum(1 for a, b in zip(psi, psi[1:])
                          if b > a + 1e-6 * (1.0 + a))
    _report(4, violations == 0,
            f"{violations} increases of the switched Lyapunov value "
            f"across 20 runs")


def test_criterion_5_sos_engine_properties():
    # (a) nonnegative but not SOS: the decomposition must refuse
    motzkin = parse_polynomial("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
    assert sos_decompose(motzkin).status == INFEASIBLE
    g = np.linspace(-2.0, 2.0, 41)
    pts = np.array([(a, b) for a in g for b in g])
    assert motzkin.eval_many(pts).min() >= -1e-12

    # (b) sums of random squares decompose back within 1e-6
    rng = np.random.default_rng(7)
    worst_b = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        half = int(rng.integers(1, 4))
        p = Polynomial.zero(n)
        for _ in range(2):
            basis = monomial_basis(n, half)
            q = Polynomial(n, {m: c for m, c in
                               zip(basis, rng.uniform(-1.0, 1.0, len(basis)))})
            p = p + q * q
        cert = sos_decompose(p)
        assert cert.status == FEASIBLE
        recon = Polynomial.zero(n)
        for q in extract_sos_split(cert, "sos:s0"):
            recon = recon + q * q
        worst_b = max(worst_b, (recon - p).coeff_norm())
    assert worst_b <= 1e-6

    # (c) splitting a PSD Gram built by hand is exact to 1e-8
    worst_c = 0.0
    for _ in range(20):
        basis = monomial_basis(2, 2)
        A = rng.normal(size=(len(basis), len(basis)))
        rep = GramRepresentation(basis=basis, gram=A.T @ A)
        cert = SosCertificate(gram_blocks={"g": rep})
        recon = Polynomial.zero(2)
        for q in extract_sos_split(cert, "g"):
            recon = recon + q * q
        worst_c = max(worst_c, (recon - rep.polynomial(2)).coeff_norm())
    assert worst_c <= 1e-8
    _report(5, True, f"Motzkin refused; split residuals "
                     f"{worst_b:.1e} / {worst_c:.1e}")


def test_criterion_6_sliding_against_exact_solution(opposing_system,
                                                     monkeypatch):
    # fields (1,-1) above and (-1,1) below the x1-axis: the start (0, 0.5)
    # falls onto the axis at t = 0.5 with x1 = 0.5, then slides with the
    # zero convex combination, so x1(1) = 0.5 exactly
    monkeypatch.setattr(sim, "BALL_STOP", 1e-12)
    traj = simulate(opposing_system, (0.0, 0.5), SimConfig(t_end=1.0))
    entry = [t for t, kind, _ in traj.events if kind == "sliding_entry"]
    alphas = [p.alpha for p in traj.points if p.alpha is not None]
    ok = (len(entry) == 1 and abs(entry[0] - 0.5) <= 1e-3
          and alphas and max(abs(a - 0.5) for a in alphas) <= 1e-6
          and abs(traj.final_time - 1.0) <= 1e-9
          and abs(traj.final_state[0] - 0.5) <= 1e-3)
    _report(6, ok, f"entry t={entry[0] if entry else None}, "
                   f"x1(1)={traj.final_state[0]:.6f}")


def test_criterion_7_integrator_is_fourth_order():
    from swsos.system import parse_system
    sys_ = parse_system({
        "dimension": 1, "box": [[-2.0, 2.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [1.0]}],
        "boundaries": [], "dynamics": {"1": [["-x1"]]}, "origin_regions": [1],
    })
    errors, ends = [], []
    for h in (0.1, 0.05, 0.025):
        traj = simulate(sys_, (1.0,), SimConfig(step=h, t_end=1.0))
        ends.append(traj.final_time)
        errors.append(abs(traj.final_state[0] - np.exp(-1.0)))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(12.0 <= r <= 20.0 for r in ratios) and ends == [1.0] * 3
    _report(7, ok, "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_8_unstable_system_is_refused(unstable_system):
    statuses = {}
    for deg in (2, 4, 6):
        cert = certify(unstable_system,
                       CertificationConfig(lyapunov_degree=deg))
        statuses[deg] = cert.status
    none_certified = all(s != "CERTIFIED" for s in statuses.values())

    # any hand-fed candidate fails the decrease condition near the origin
    candidate = {1: parse_polynomial("x1^2", 1)}
    report = verify_certificate(unstable_system, candidate)
    failing = {r.condition for r in report.records if not r.passed}
    ok = none_certified and not report.passed and "lie_region" in failing
    _report(8, ok, f"degrees 2/4/6 -> "
                   f"{', '.join(statuses[d] for d in (2, 4, 6))}; "
                   f"candidate verdict {report.verdict}")


def test_criterion_9_convexity_transfer(quadrant_system,
                                        published_lyapunov):
    defect = vertex_convexity_check(quadrant_system, published_lyapunov,
                                    n_pairs=1000, seed=0)
    _report(9, defect <= 1e-10, f"worst defect {defect:.2e} over 10^3 draws")
