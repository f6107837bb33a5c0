import numpy as np
import pytest

from swsos.oracle import (OracleConfig, sample_boundary, sample_region,
                          verify_certificate, vertex_convexity_check)
from swsos.poly import parse_polynomial


def small_cfg(**kw):
    defaults = dict(grid_per_dim=21, random_samples=2000, boundary_samples=100)
    defaults.update(kw)
    return OracleConfig(**defaults)


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        OracleConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        OracleConfig(random_samples=-1)


def test_sample_region_respects_quadrant_sign(quadrant_system):
    pts, warns = sample_region(quadrant_system, quadrant_system.regions[1],
                               small_cfg())
    assert not warns
    assert len(pts) >= 100
    # region 1 is x1*x2 >= 0: products may only dip below zero by the tol
    assert (pts[:, 0] * pts[:, 1]).min() >= -1e-6


def test_sample_region_excludes_origin_ball(quadrant_system):
    cfg = small_cfg(exclusion_radius=0.5)
    pts, _ = sample_region(quadrant_system, quadrant_system.regions[2], cfg)
    assert np.linalg.norm(pts, axis=1).min() >= 0.5


def test_sample_region_zero_survivors_warns(quadrant_system):
    from swsos.system import SemiAlgebraicRegion
    # chi = x1^2 + x2^2 vanishes only at the origin, inside the exclusion ball
    degenerate = SemiAlgebraicRegion(
        rid=9, chi=parse_polynomial("x1^2 + x2^2", 2), xi=[],
        witness=np.zeros(2))
    pts, warns = sample_region(quadrant_system, degenerate, small_cfg())
    assert pts.shape[0] == 0
    assert warns


def test_sample_boundary_finds_axes(quadrant_system):
    bnd = quadrant_system.boundary(1, 2)
    pts, warns = sample_boundary(quadrant_system, bnd, small_cfg())
    assert not warns
    assert len(pts) > 0
    chi_vals = np.abs(bnd.chi.eval_many(pts))
    assert chi_vals.max() < 1e-9


def test_sample_boundary_warns_without_zeros(quadrant_system):
    from swsos.system import BoundaryVariety
    bnd = BoundaryVariety(i=1, j=2, chi=parse_polynomial("x1^2 + 1", 2))
    pts, warns = sample_boundary(quadrant_system, bnd, small_cfg())
    assert warns


def test_box_override_narrows_sampling(quadrant_system):
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    pts, _ = sample_region(quadrant_system, quadrant_system.regions[1],
                           small_cfg(box=box))
    assert np.abs(pts).max() <= 1.0


def test_verify_accepts_published_family(quadrant_system, published_lyapunov):
    report = verify_certificate(quadrant_system, published_lyapunov,
                                small_cfg(), attractive_pairs=[])
    assert report.passed
    assert report.verdict == "no-violation-found"


def test_verify_refutes_negative_definite_candidate(quadrant_system):
    bad = {rid: parse_polynomial("-x1^2 - x2^2", 2)
           for rid in quadrant_system.regions}
    report = verify_certificate(quadrant_system, bad, small_cfg())
    assert not report.passed
    assert report.verdict.startswith("violated-at(")
    assert any(r.condition == "positivity" and not r.passed
               for r in report.records)


def test_verify_refutes_discontinuous_family(quadrant_system,
                                             published_lyapunov):
    broken = dict(published_lyapunov)
    broken[2] = broken[2] + 1.0  # constant offset breaks gluing
    report = verify_certificate(quadrant_system, broken, small_cfg())
    assert any(r.condition == "continuity" and not r.passed
               for r in report.records)


def test_attractive_pairs_restrict_boundary_conditions(
        quadrant_system, published_lyapunov):
    full = verify_certificate(quadrant_system, published_lyapunov,
                              small_cfg(), attractive_pairs=None)
    none = verify_certificate(quadrant_system, published_lyapunov,
                              small_cfg(), attractive_pairs=[])
    n_full = sum(1 for r in full.records if r.condition == "lie_boundary")
    n_none = sum(1 for r in none.records if r.condition == "lie_boundary")
    assert n_full > 0 and n_none == 0


def test_report_serializes(quadrant_system, published_lyapunov):
    report = verify_certificate(quadrant_system, published_lyapunov,
                                small_cfg(), attractive_pairs=[])
    doc = report.to_dict()
    assert doc["verdict"] == "no-violation-found"
    assert all("worst_violation" in r for r in doc["conditions"])


def test_vertex_convexity_defect_is_rounding_level(quadrant_system,
                                                   published_lyapunov):
    defect = vertex_convexity_check(quadrant_system, published_lyapunov,
                                    n_pairs=50)
    assert defect < 1e-10


def test_deterministic_given_seed(quadrant_system, published_lyapunov):
    a = verify_certificate(quadrant_system, published_lyapunov,
                           small_cfg(seed=7), attractive_pairs=[])
    b = verify_certificate(quadrant_system, published_lyapunov,
                           small_cfg(seed=7), attractive_pairs=[])
    assert a.to_dict() == b.to_dict()


def _sample_boundary_one_at_a_time(box, boundary, cfg, rng):
    """The segment-at-a-time sampler that sample_boundary must reproduce."""
    lo, hi = box
    n = len(lo)
    chi = boundary.chi
    pts = []
    warns = []
    misses = 0
    while len(pts) < cfg.boundary_samples:
        a = rng.uniform(lo, hi, size=n)
        b = rng.uniform(lo, hi, size=n)
        fa, fb = chi(a), chi(b)
        if fa == 0.0:
            pts.append(a)
            continue
        if np.sign(fa) == np.sign(fb):
            misses += 1
            if misses >= 50 * cfg.boundary_samples:
                warns.append(
                    f"boundary ({boundary.i},{boundary.j}): no sign straddle "
                    f"after {misses} segment draws; {len(pts)} points found")
                break
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = chi(m)
            if abs(fm) <= 1e-12:
                break
            if np.sign(fm) == np.sign(fa):
                a, fa = m, fm
            else:
                b, fb = m, fm
        pts.append(0.5 * (a + b))
    pts = np.asarray(pts).reshape(-1, n)
    if pts.shape[0]:
        pts = pts[np.linalg.norm(pts, axis=1) >= cfg.exclusion_radius]
    if pts.shape[0] == 0 and not warns:
        warns.append(f"boundary ({boundary.i},{boundary.j}): no boundary witness found")
    return pts, warns


_X2_ZERO_BOX = (np.array([-2.0, 0.0]), np.array([2.0, 0.0]))


@pytest.mark.parametrize("chi, cfg_kw", [
    *[("x1*x2", dict(seed=s)) for s in range(5)],
    ("x1^2 + 1", dict(boundary_samples=100)),            # never straddles
    ("100000000*x1 - 10000000", dict()),                 # 200-step cap
    ("x1*x2", dict(box=_X2_ZERO_BOX)),                   # chi(a) == 0 exactly
    ("x1^2 - 15.21", dict()),                            # rare hits, many rounds
    ("x1^2 - 15.9", dict()),                             # misses run out mid-round
    ("1e60*x1", dict()),                                 # still bisecting at the cap
], ids=["xy-seed0", "xy-seed1", "xy-seed2", "xy-seed3", "xy-seed4",
        "no-straddle", "step-cap", "exact-zeros", "rare-hits",
        "misses-run-out", "cap-binds"])
def test_sample_boundary_matches_one_at_a_time(quadrant_system, chi, cfg_kw):
    from swsos.system import BoundaryVariety
    bnd = BoundaryVariety(i=1, j=2, chi=parse_polynomial(chi, 2))
    cfg = small_cfg(**cfg_kw)
    box = cfg.box if cfg.box is not None else quadrant_system.box
    rng_ref = np.random.default_rng(cfg.seed)
    rng_new = np.random.default_rng(cfg.seed)
    ref_pts, ref_warns = _sample_boundary_one_at_a_time(box, bnd, cfg, rng_ref)
    pts, warns = sample_boundary(quadrant_system, bnd, cfg, rng_new)
    assert np.array_equal(pts, ref_pts)
    assert warns == ref_warns
    assert rng_new.random() == rng_ref.random()
