import json
from dataclasses import fields, replace

import numpy as np
import pytest

from swsos import oracle
from swsos.oracle import (OracleConfig, sample_boundary, sample_region,
                          verify_certificate, vertex_convexity_check)
from swsos.poly import parse_polynomial

from oracle_corpus import digest, digests, half_spaces_3d, quadrant_families


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        OracleConfig(tolerance=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            OracleConfig(tolerance=bad)
    # the sampling sizes are module constants, and the box is the system's
    assert [f.name for f in fields(OracleConfig)] == ["seed", "tolerance"]


def test_nan_ranks_as_the_worst_violation():
    from swsos.oracle import ConditionRecord, OracleReport, _worst
    nan = float("nan")
    assert _worst(np.array([1.0, 5.0, nan, 9.0]), np.eye(4))[1] == (0, 0, 1, 0)
    records = [ConditionRecord("positivity", "region 1", 3, 5.0, (1.0,), False),
               ConditionRecord("continuity", "boundary (1,2)", 3, nan, (2.0,), False),
               ConditionRecord("lie_region", "region 2", 3, 7.0, (3.0,), False)]
    report = OracleReport(records=records)
    assert report.verdict == "violated-at(2.0,)"


def test_sample_region_respects_quadrant_sign(quadrant_system, small_oracle):
    pts, warns = sample_region(quadrant_system, quadrant_system.regions[1],
                               OracleConfig())
    assert not warns
    assert len(pts) >= 100
    # region 1 is x1*x2 >= 0: products may only dip below zero by the tol
    assert (pts[:, 0] * pts[:, 1]).min() >= -1e-6


def test_sample_region_excludes_origin_ball(quadrant_system, small_oracle,
                                            monkeypatch):
    monkeypatch.setattr(oracle, "EXCLUSION_RADIUS", 0.5)
    pts, _ = sample_region(quadrant_system, quadrant_system.regions[2],
                           OracleConfig())
    assert np.linalg.norm(pts, axis=1).min() >= 0.5


def test_sample_region_zero_survivors_warns(quadrant_system, small_oracle):
    from swsos.system import SemiAlgebraicRegion
    # chi = x1^2 + x2^2 vanishes only at the origin, inside the exclusion ball
    degenerate = SemiAlgebraicRegion(
        rid=9, chi=parse_polynomial("x1^2 + x2^2", 2), xi=[],
        witness=np.zeros(2))
    pts, warns = sample_region(quadrant_system, degenerate, OracleConfig())
    assert pts.shape[0] == 0
    assert warns


def test_sample_boundary_finds_axes(quadrant_system, small_oracle):
    bnd = quadrant_system.boundary(1, 2)
    pts, warns = sample_boundary(quadrant_system, bnd, OracleConfig())
    assert not warns
    assert len(pts) > 0
    chi_vals = np.abs(bnd.chi.eval_many(pts))
    assert chi_vals.max() < 1e-9


def test_sample_boundary_warns_without_zeros(quadrant_system, small_oracle):
    from swsos.system import BoundaryVariety
    bnd = BoundaryVariety(i=1, j=2, chi=parse_polynomial("x1^2 + 1", 2))
    pts, warns = sample_boundary(quadrant_system, bnd, OracleConfig())
    assert warns


def test_box_override_narrows_sampling(quadrant_system, small_oracle):
    # the oracle samples the system's box: a narrower copy narrows it
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    narrow = replace(quadrant_system, box=box)
    pts, _ = sample_region(narrow, narrow.regions[1], OracleConfig())
    assert np.abs(pts).max() <= 1.0


def test_verify_accepts_published_family(quadrant_system, published_lyapunov, small_oracle):
    report = verify_certificate(quadrant_system, published_lyapunov,
                                OracleConfig(), attractive_pairs=[])
    assert report.passed
    assert report.verdict == "no-violation-found"


def test_verify_refutes_negative_definite_candidate(quadrant_system, small_oracle):
    bad = {rid: parse_polynomial("-x1^2 - x2^2", 2)
           for rid in quadrant_system.regions}
    report = verify_certificate(quadrant_system, bad, OracleConfig())
    assert not report.passed
    assert report.verdict.startswith("violated-at(")
    assert any(r.condition == "positivity" and not r.passed
               for r in report.records)


def test_verify_refutes_discontinuous_family(quadrant_system,
                                             published_lyapunov, small_oracle):
    broken = dict(published_lyapunov)
    broken[2] = broken[2] + 1.0  # constant offset breaks gluing
    report = verify_certificate(quadrant_system, broken, OracleConfig())
    assert any(r.condition == "continuity" and not r.passed
               for r in report.records)


def test_attractive_pairs_restrict_boundary_conditions(
        quadrant_system, published_lyapunov, small_oracle):
    full = verify_certificate(quadrant_system, published_lyapunov,
                              OracleConfig(), attractive_pairs=None)
    none = verify_certificate(quadrant_system, published_lyapunov,
                              OracleConfig(), attractive_pairs=[])
    n_full = sum(1 for r in full.records if r.condition == "lie_boundary")
    n_none = sum(1 for r in none.records if r.condition == "lie_boundary")
    assert n_full > 0 and n_none == 0


def test_report_serializes(quadrant_system, published_lyapunov, small_oracle):
    report = verify_certificate(quadrant_system, published_lyapunov,
                                OracleConfig(), attractive_pairs=[])
    doc = report.to_dict()
    assert doc["verdict"] == "no-violation-found"
    assert all("worst_violation" in r for r in doc["conditions"])


def test_vertex_convexity_defect_is_rounding_level(quadrant_system,
                                                   published_lyapunov):
    defect = vertex_convexity_check(quadrant_system, published_lyapunov,
                                    n_pairs=50)
    assert defect < 1e-10


def test_deterministic_given_seed(quadrant_system, published_lyapunov, small_oracle):
    a = verify_certificate(quadrant_system, published_lyapunov,
                           OracleConfig(seed=7), attractive_pairs=[])
    b = verify_certificate(quadrant_system, published_lyapunov,
                           OracleConfig(seed=7), attractive_pairs=[])
    assert a.to_dict() == b.to_dict()


def _sample_boundary_one_at_a_time(box, boundary, rng):
    """The segment-at-a-time sampler that sample_boundary must reproduce."""
    need = oracle.BOUNDARY_SAMPLES
    lo, hi = box
    n = len(lo)
    chi = boundary.chi
    pts = []
    warns = []
    misses = 0
    while len(pts) < need:
        a = rng.uniform(lo, hi, size=n)
        b = rng.uniform(lo, hi, size=n)
        fa, fb = chi(a), chi(b)
        if fa == 0.0:
            pts.append(a)
            continue
        if np.sign(fa) == np.sign(fb):
            misses += 1
            if misses >= 50 * need:
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
        pts = pts[np.linalg.norm(pts, axis=1) >= oracle.EXCLUSION_RADIUS]
    if pts.shape[0] == 0 and not warns:
        warns.append(f"boundary ({boundary.i},{boundary.j}): no boundary witness found")
    return pts, warns


_X2_ZERO_BOX = (np.array([-2.0, 0.0]), np.array([2.0, 0.0]))


@pytest.mark.parametrize("chi, seed, box", [
    *[("x1*x2", s, None) for s in range(5)],
    ("x1^2 + 1", 0, None),                       # never straddles
    ("100000000*x1 - 10000000", 0, None),        # 200-step cap
    ("x1*x2", 0, _X2_ZERO_BOX),                  # chi(a) == 0 exactly
    ("x1^2 - 15.21", 0, None),                   # rare hits, many rounds
    ("x1^2 - 15.9", 0, None),                    # misses run out mid-round
    ("1e60*x1", 0, None),                        # still bisecting at the cap
], ids=["xy-seed0", "xy-seed1", "xy-seed2", "xy-seed3", "xy-seed4",
        "no-straddle", "step-cap", "exact-zeros", "rare-hits",
        "misses-run-out", "cap-binds"])
def test_sample_boundary_matches_one_at_a_time(quadrant_system, small_oracle,
                                               chi, seed, box):
    from swsos.system import BoundaryVariety
    bnd = BoundaryVariety(i=1, j=2, chi=parse_polynomial(chi, 2))
    sys_ = quadrant_system if box is None else replace(quadrant_system, box=box)
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    ref_pts, ref_warns = _sample_boundary_one_at_a_time(sys_.box, bnd, rng_ref)
    pts, warns = sample_boundary(sys_, bnd, OracleConfig(seed=seed), rng_new)
    assert np.array_equal(pts, ref_pts)
    assert warns == ref_warns
    assert rng_new.random() == rng_ref.random()


@pytest.mark.parametrize("chi", ["1e308*x1^3 + x2", "1e308*x1^3 - 1e308*x2^3"],
                         ids=["inf", "nan"])
def test_sample_boundary_bisects_inf_and_nan_as_one_at_a_time(
        quadrant_system, small_oracle, chi):
    # chi overflows to inf at some midpoints, and to inf - inf = nan at
    # some ends and midpoints: a nan never has a's sign, so b takes it
    from swsos.system import BoundaryVariety
    bnd = BoundaryVariety(i=1, j=2, chi=parse_polynomial(chi, 2))
    rng_ref, rng_new = np.random.default_rng(4), np.random.default_rng(4)
    ref_pts, ref_warns = _sample_boundary_one_at_a_time(quadrant_system.box,
                                                        bnd, rng_ref)
    pts, warns = sample_boundary(quadrant_system, bnd, OracleConfig(seed=4), rng_new)
    assert np.array_equal(pts, ref_pts)
    assert warns == ref_warns
    assert rng_new.random() == rng_ref.random()


def test_sample_region_never_holds_every_candidate():
    # the candidates stream in chunks, so the peak is the survivors and
    # their gathered copy, not the whole grid plus random draws
    import tracemalloc
    sys_, _ = half_spaces_3d()
    region = sys_.regions[min(sys_.regions)]
    tracemalloc.start()
    try:
        pts, _ = sample_region(sys_, region, OracleConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.flags.c_contiguous and pts.shape[1] == 3
    assert peak < 4 * pts.nbytes


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_region_records_match_sample_region(quadrant_system, published_lyapunov,
                                            seed, sign):
    # verify_certificate takes the candidates' norms once; the records must
    # be those of sample_region and the norms of its survivors
    from swsos.oracle import ConditionRecord, _scale, _worst
    from swsos.poly import lie_derivative
    family = {rid: V * sign for rid, V in published_lyapunov.items()}
    cfg = OracleConfig(seed=seed)
    report = verify_certificate(quadrant_system, family, cfg)

    expected, warnings = [], []
    for rid, region in sorted(quadrant_system.regions.items()):
        # each call draws the candidates anew from the seed, as
        # verify_certificate draws them once for every region
        pts, warns = sample_region(quadrant_system, region, cfg)
        warnings += warns
        norms = np.linalg.norm(pts, axis=1)
        V = family[rid]
        viol = (cfg.tolerance * norms ** 2 - V.eval_many(pts)) / _scale(norms, V.degree())
        expected.append(("positivity", f"region {rid}", pts.shape[0], *_worst(viol, pts)))
        for l, f in enumerate(quadrant_system.dynamics[rid].vertices):
            lie = lie_derivative(V, f)
            w = _worst(lie.eval_many(pts) / _scale(norms, lie.degree()), pts)
            expected.append(("lie_region", f"region {rid}, vertex {l}", pts.shape[0], *w))
    expected = [ConditionRecord(*e, e[3] <= cfg.tolerance) for e in expected]
    assert repr(report.records[:len(expected)]) == repr(expected)
    assert report.warnings[:len(warnings)] == warnings


# sha256 of each corpus report's JSON (tests/oracle_corpus.py); a change
# that alters oracle reports on purpose prints the new ones with that module
PINNED_REPORT_DIGESTS = {
    'published seed0': 'b91898d81b1dd532b7246604a5fb0bb80c0375cc01bc815d0b966f2176622816',
    'published seed5': '4a8668a9c3b59baeef709dad97b89842fcb81398edc9d1de53889d97d29f3ee5',
    'published seed11': 'f39d91f29c1b8be2aa4b2b2ee8d1522ff805de82d01537407e52e8cf60456ef2',
    'flip x1^6 seed0': 'b84e19b4dd7356ba4594311c0f14758a1af83fd362bcc42e7fe6f3c0fdb852eb',
    'flip x1^6 seed5': '11efd03809fcafe2bc44bd397d3b3eb4dd065c6722f1b67e1280c10c8d73ce9e',
    'flip x1^6 seed11': '49f6320eba3123689db626e7d34413ea333113d7df9f12286fd763a2347b3ff1',
    'flip x2^4 seed0': '5fec8b173d053e5d54354159516832cc15d57bef310a9f6228fc6053fc4ad11b',
    'flip x2^4 seed5': '3ccd2cfa09adf29d76b9c8278e903943b46c9f9454d54309071e4b1fc7808e7d',
    'flip x2^4 seed11': 'aacf37ed3a61abe6ad3fb66894de494ca9a4b5c33f276eab0a03092098b3e615',
    'published no pairs': 'd7da11dfe597cf6bb0858f7f5058abf20827910a1935ef9d628977697ddf1416',
    'published small box': 'd0809ced4d422fc27817b0456a72f7ce204bfad3f3416661fde7b0095f879307',
    'published boundary_samples7': '3e19d1a4a1722ee9118b84f668002df8b8ff37a8d8fbbfd88227752a4c89f03a',
    'opposing-fields x1^2 + x2^2': 'c8660bba31e955395af6ac87e3a94be7f379f333224d297fb39443be63e22091',
    'aligned-fields x1^2 + x2^2': 'b69fe4fde033f508bd9713c5e5da8e6f84a982e2e90e9d7073f87d5980a6d119',
}


def test_oracle_reports_are_pinned():
    assert digests() == PINNED_REPORT_DIGESTS


@pytest.mark.parametrize("n", [*range(1, 21), 64, 127, 128, 129, 200, 300, 517])
def test_norms_match_linalg_norm_on_rows(n):
    # numpy sums each row pairwise; a column sum rounds differently for
    # n >= 8 on these points, so only the mirrored order gives the same bits
    from swsos.oracle import _norms
    rows = np.random.default_rng(n).uniform(-2.0, 2.0, size=(1000, n))
    expected = np.linalg.norm(rows, axis=1)
    got = _norms(np.ascontiguousarray(rows.T))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, small_oracle, chunk):
    # every worst case is folded across chunk edges: first-max ties, and
    # the first nan of the overflowing family, must land where one
    # np.argmax over all candidates puts them
    quadrant, families = quadrant_families()
    big = parse_polynomial("1e308*x1^6 + x2^2", 2)
    runs = [families["published"], families["flip x1^6"],
            {rid: big for rid in quadrant.regions}]
    cfg = OracleConfig()
    # through json: the nan values of two reports never compare equal
    expected = [json.dumps(verify_certificate(quadrant, f, cfg).to_dict())
                for f in runs]
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    assert [json.dumps(verify_certificate(quadrant, f, cfg).to_dict())
            for f in runs] == expected


def test_candidate_chunks_concatenate_to_the_meshgrid(quadrant_system, monkeypatch):
    lo, hi = quadrant_system.box
    monkeypatch.setattr(oracle, "GRID_PER_DIM", 5)
    monkeypatch.setattr(oracle, "RANDOM_SAMPLES", 11)
    monkeypatch.setattr(oracle, "CHUNK", 4)
    rng = np.random.default_rng(3)
    chunks = list(oracle._candidate_chunks((lo, hi), rng))
    assert [c.shape[1] for c in chunks] == [4] * 6 + [1] + [4, 4, 3]
    assert all(c.flags.c_contiguous for c in chunks)
    axes = [np.linspace(lo[k], hi[k], 5) for k in range(2)]
    grid = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    ref_rng = np.random.default_rng(3)
    expected = np.vstack([grid, ref_rng.uniform(lo, hi, size=(11, 2))])
    assert np.array_equal(np.concatenate(chunks, axis=1).T, expected)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("lo, hi", [
    ([0.25], [0.75]),
    ([-4.0, -4.0], [4.0, 4.0]),
    ([-0.3, 1e-3], [7.1, 2e-3]),
    ([-1e-300, 5.0], [3e-300, 1e10]),
    ([-2.0, -0.1, 3.0], [2.0, 0.7, 3.3]),
], ids=["n1", "n2-square", "n2-lopsided", "n2-tiny-and-huge", "n3-lopsided"])
def test_candidate_chunks_draw_as_uniform(monkeypatch, lo, hi):
    # the random chunks scale rng.random draws in place, lo + (hi - lo) * d,
    # the formula of numpy's random_uniform (lower + range * next_double)
    # behind rng.uniform; spans that are not powers of two round in the
    # multiply, so a different order of operations would show here
    lo, hi = np.array(lo), np.array(hi)
    n = len(lo)
    monkeypatch.setattr(oracle, "GRID_PER_DIM", 2)
    monkeypatch.setattr(oracle, "RANDOM_SAMPLES", 5000)
    monkeypatch.setattr(oracle, "CHUNK", 1024)
    rng = np.random.default_rng(17)
    chunks = list(oracle._candidate_chunks((lo, hi), rng))
    assert all(c.flags.c_contiguous for c in chunks)
    ref_rng = np.random.default_rng(17)
    expected = ref_rng.uniform(lo, hi, size=(oracle.RANDOM_SAMPLES, n))
    got = np.concatenate(chunks, axis=1).T[2 ** n:]
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert rng.random() == ref_rng.random()


def test_scale_is_taken_once_per_chunk_region_and_degree(monkeypatch, quadrant_system,
                                                        published_lyapunov):
    # positivity and every lie_region condition of a region share the
    # scale of their degree within a chunk: on the published family all
    # five conditions have degree 6, so 2 scales per chunk, not 5
    from swsos.poly import lie_derivative
    calls = {"region": 0}
    scale, boundary = oracle._scale, oracle.sample_boundary

    def counted_scale(norms, deg):
        calls["region"] += "boundary" not in calls
        return scale(norms, deg)

    def marked_boundary(*args, **kwargs):
        calls["boundary"] = True
        return boundary(*args, **kwargs)

    monkeypatch.setattr(oracle, "_scale", counted_scale)
    monkeypatch.setattr(oracle, "sample_boundary", marked_boundary)
    report = verify_certificate(quadrant_system, published_lyapunov)
    assert report.passed
    chunks = sum(1 for _ in oracle._candidate_chunks(
        quadrant_system.box, np.random.default_rng(0)))
    degrees = sum(
        len({V.degree()} | {lie_derivative(V, f).degree()
                            for f in quadrant_system.dynamics[rid].vertices})
        for rid, V in published_lyapunov.items())
    assert chunks == 8 and degrees == 2
    assert calls["region"] == chunks * degrees


# sha256 of the 3-D half-space report at the default OracleConfig, computed
# with every candidate held at once: the streaming pass must reproduce it
PINNED_3D_DIGEST = 'f8fee148381140be90c80466f5ddf96c37e349b0856bb1cf9ed6ae7a86ea0643'


def test_3d_report_is_pinned():
    assert digest(verify_certificate(*half_spaces_3d())) == PINNED_3D_DIGEST


def test_3d_verify_memory_does_not_grow_with_the_grid():
    # 101^3 grid points plus 100k random ones are 27 MB as one (3, m)
    # array, so the bound holds only if no copy of them all is ever made
    import tracemalloc
    sys_, family = half_spaces_3d()
    tracemalloc.start()
    try:
        verify_certificate(sys_, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
