import json

import numpy as np
import pytest

from swsos.system import (SystemFormatError, load_system, parse_system,
                          system_to_dict)


def _minimal_doc():
    return {
        "dimension": 1,
        "box": [[-1.0, 1.0]],
        "regions": [{"id": 1, "chi": "0", "xi": [], "witness": [0.5]}],
        "boundaries": [],
        "dynamics": {"1": [["-x1"]]},
        "origin_regions": [1],
    }


def test_round_trip_through_dict(quadrant_system):
    doc = system_to_dict(quadrant_system)
    again = parse_system(doc)
    assert again.dimension == quadrant_system.dimension
    assert set(again.regions) == set(quadrant_system.regions)
    assert system_to_dict(again) == doc


def test_load_records_source_hash(systems_dir):
    sys_ = load_system(systems_dir / "quadrant-cubic.sys")
    assert len(sys_.source_hash) == 64


def test_malformed_json_reports_location(tmp_path):
    f = tmp_path / "bad.sys"
    f.write_text("{\n  broken\n}")
    with pytest.raises(SystemFormatError, match=r"bad\.sys:2"):
        load_system(f)


def _with_boundary(i, j):
    """A mutation adding region 2 and the boundary (i, j) between them."""
    return lambda d: d.update(
        regions=d["regions"] + [{"id": 2, "chi": "0", "xi": [], "witness": [-0.5]}],
        boundaries=[{"i": i, "j": j, "chi_ij": "x1"}],
        dynamics={"1": [["-x1"]], "2": [["-x1"]]})


def test_two_region_mutation_is_well_formed():
    doc = _minimal_doc()
    _with_boundary(1, 2)(doc)
    assert parse_system(doc).boundary(1, 2).pair == (1, 2)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("dimension"),
    lambda d: d["box"].__setitem__(0, [1.0, -1.0]),        # lo >= hi
    lambda d: d["dynamics"].__setitem__("9", [["-x1"]]),   # unknown region
    lambda d: d["dynamics"].pop("1"),                      # region w/o field
    lambda d: d["regions"][0].__setitem__("witness", [0.5, 0.0]),  # 2 entries
    lambda d: d["dynamics"].__setitem__("1", [["-x1", "x1"]]),     # 2 components
    lambda d: d.update(                                    # 2-entry boundary witness
        regions=d["regions"] + [{"id": 2, "chi": "0", "xi": [], "witness": [-0.5]}],
        boundaries=[{"i": 1, "j": 2, "chi_ij": "x1", "witness": [0.0, 0.0]}],
        dynamics={"1": [["-x1"]], "2": [["-x1"]]}),
    # ids, the dimension and region references are JSON integers: a float
    # is not truncated and a bool is not 0 or 1
    lambda d: d.update(dimension=1.9),
    lambda d: d.update(dimension=True),
    lambda d: d["regions"][0].__setitem__("id", 1.6),
    lambda d: d.update(origin_regions=[1.0]),
    lambda d: d.update(origin_regions=[True]),
    _with_boundary(i=1.2, j=2),
    _with_boundary(i=True, j=2),
    _with_boundary(i=1, j=2.0),
    lambda d: d.update(origin_regions=[1, 9]),             # unknown region
])
def test_malformed_documents_rejected(mutate):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SystemFormatError):
        parse_system(doc)


@pytest.mark.parametrize("side", [[-1e308, 1e308], [-float("inf"), 1.0],
                                  [0.0, float("nan")]])
def test_box_width_must_be_finite(side):
    # a width that overflows would make every sampled point inf or nan
    doc = _minimal_doc()
    doc["box"] = [side]
    with pytest.raises(SystemFormatError, match="finite width"):
        parse_system(doc)


def test_boundary_must_join_known_distinct_regions():
    doc = _minimal_doc()
    doc["boundaries"] = [{"i": 1, "j": 1, "chi_ij": "x1"}]
    with pytest.raises(SystemFormatError):
        parse_system(doc)


def _two_region_doc():
    doc = _minimal_doc()
    doc["regions"][0]["xi"] = ["x1"]
    doc["regions"].append({"id": 2, "chi": "0", "xi": ["-x1"], "witness": [-0.5]})
    doc["boundaries"] = [{"i": 1, "j": 2, "chi_ij": "x1"}]
    doc["dynamics"]["2"] = [["-x1"]]
    return doc


@pytest.mark.parametrize("mutate, message", [
    # a second region 2 used to replace the first
    (lambda d: d["regions"].append(
        {"id": 2, "chi": "0", "xi": ["x2 - 5"], "witness": [-0.5]}),
     "region id 2 appears twice"),
    # "1" and "01" used to collapse into one entry
    (lambda d: d["dynamics"].__setitem__("01", [["x1"]]),
     "dynamics for region 1 appear twice"),
    # (2,1) used to be kept, but boundary(1, 2) returned only (1,2)
    (lambda d: d["boundaries"].append({"i": 2, "j": 1, "chi_ij": "2*x1"}),
     r"boundary \(2,1\) is declared twice"),
])
def test_duplicate_ids_rejected(tmp_path, capsys, mutate, message):
    from swsos.cli import EXIT_INPUT, main
    doc = _two_region_doc()
    parse_system(doc)
    mutate(doc)
    with pytest.raises(SystemFormatError, match=message):
        parse_system(doc)
    f = tmp_path / "dup.sys"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == EXIT_INPUT
    assert "twice" in capsys.readouterr().err


def test_locate_quadrants(quadrant_system):
    assert quadrant_system.locate((1.0, 1.0), tol=1e-9) == {1}
    assert quadrant_system.locate((1.0, -1.0), tol=1e-9) == {2}
    # the axes belong to both closures
    assert quadrant_system.locate((1.0, 0.0), tol=1e-9) == {1, 2}
    with pytest.raises(ValueError):
        quadrant_system.locate((1.0, 1.0, 1.0), tol=1e-9)


@pytest.mark.parametrize("tol", [1e-6, 0.0, -1e-6])
def test_contains_many_with_zero_chi_matches_contains(tol):
    # on columns, a zero chi's test is 0.0 <= tol at every point, nan and
    # inf included, as the pointwise contains finds; with no xi either (as
    # in unstable-scalar.sys) columns still get a mask
    from swsos.poly import parse_polynomial
    from swsos.system import SemiAlgebraicRegion
    nan, inf = float("nan"), float("inf")
    points = [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (-0.0, 1.0), (2.0, 3.0),
              (-1e-7, 1.0), (1.0, 1.0 - 1e-7), (-1.0, 2.0), (1.0, 0.0),
              (nan, 2.0), (1.0, nan), (nan, nan), (inf, 2.0), (-inf, 2.0),
              (1.0, inf), (1.0, -inf), (inf, -inf)]
    cols = np.ascontiguousarray(np.array(points).T)
    for xi in (["x1", "x2 - 1"], []):
        region = SemiAlgebraicRegion(
            rid=1, chi=parse_polynomial("0", 2),
            xi=[parse_polynomial(g, 2) for g in xi], witness=np.array([1.0, 2.0]))
        assert region.chi.is_zero()
        expected = [region.contains(list(p), tol) for p in points]
        assert region.contains(cols, tol).tolist() == expected


def test_field_at_convex_combination(quadrant_system):
    x = np.array([0.7, -0.3])
    f0 = quadrant_system.field_at(1, (1.0, 0.0))(x)
    f1 = quadrant_system.field_at(1, (0.0, 1.0))(x)
    mix = quadrant_system.field_at(1, (0.25, 0.75))(x)
    assert np.allclose(mix, 0.25 * f0 + 0.75 * f1, atol=1e-12)
    # theta left out takes the first vertex
    assert quadrant_system.field_at(1)(x).tobytes() == f0.tobytes()


def test_field_at_rejects_off_simplex(quadrant_system):
    with pytest.raises(ValueError):
        quadrant_system.field_at(1, (0.6, 0.6))
    with pytest.raises(ValueError):
        quadrant_system.field_at(1, (-0.1, 1.1))
    with pytest.raises(ValueError):
        quadrant_system.field_at(1, (1.0,))  # wrong vertex count
    # non-finite weights fail both simplex tests
    for theta in ((np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (np.inf, -np.inf),
                  (np.nan, np.nan)):
        with pytest.raises(ValueError):
            quadrant_system.field_at(1, theta)


def test_in_box(quadrant_system):
    assert quadrant_system.in_box((0.0, 0.0))
    assert not quadrant_system.in_box((5.0, 0.0))


def test_validate_passes_on_shipped_system(quadrant_system):
    report = quadrant_system.validate()
    assert not report.has_fail
    assert not any(status == "warn" for _, status, _ in report.checks)
    assert report.caveats  # sampling-only caveat always present


def test_validate_warns_when_boundary_has_no_zero():
    doc = _minimal_doc()
    doc["regions"].append({"id": 2, "chi": "0", "xi": [], "witness": [0.0]})
    doc["dynamics"]["2"] = [["-x1"]]
    # chi = x1^2 + 1 has no real zero in the box
    doc["boundaries"] = [{"i": 1, "j": 2, "chi_ij": "x1^2 + 1"}]
    report = parse_system(doc).validate()
    assert any("witness" in name and status == "warn"
               for name, status, _ in report.checks)


@pytest.mark.parametrize("name", ["aligned-fields", "branicky-a", "opposing-fields",
                                  "quadrant-cubic", "tilted-relay", "twisting"])
def test_validate_finds_boundary_zeros_without_witnesses(systems_dir, name):
    # the zeros that stand in for the witnesses lie on chi_ij = 0 and in
    # the closure of both regions, so no adjacency check warns
    sys_ = load_system(systems_dir / f"{name}.sys")
    for b in sys_.boundaries:
        b.witness = None
    report = sys_.validate()
    assert [c for c in report.checks if c[1] != "pass"] == []
    assert sum(detail == "zero located by sampling"
               for _, _, detail in report.checks) == len(sys_.boundaries)


def test_validate_fails_bad_origin_region():
    doc = _minimal_doc()
    # xi(0) = -1 < 0, yet the region claims to contain the origin
    doc["regions"][0]["xi"] = ["x1 - 1"]
    doc["regions"][0]["witness"] = [1.0]
    report = parse_system(doc).validate()
    assert report.has_fail


def test_validate_fails_bad_witness():
    doc = _minimal_doc()
    doc["regions"][0]["xi"] = ["-x1"]  # witness 0.5 violates -x1 >= 0
    report = parse_system(doc).validate()
    assert report.has_fail
