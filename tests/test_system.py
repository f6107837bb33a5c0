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
])
def test_malformed_documents_rejected(mutate):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SystemFormatError):
        parse_system(doc)


def test_boundary_must_join_known_distinct_regions():
    doc = _minimal_doc()
    doc["boundaries"] = [{"i": 1, "j": 1, "chi_ij": "x1"}]
    with pytest.raises(SystemFormatError):
        parse_system(doc)


def test_locate_quadrants(quadrant_system):
    assert quadrant_system.locate((1.0, 1.0), tol=1e-9) == {1}
    assert quadrant_system.locate((1.0, -1.0), tol=1e-9) == {2}
    # the axes belong to both closures
    assert quadrant_system.locate((1.0, 0.0), tol=1e-9) == {1, 2}
    with pytest.raises(ValueError):
        quadrant_system.locate((1.0, 1.0, 1.0), tol=1e-9)


def test_field_at_convex_combination(quadrant_system):
    x = np.array([0.7, -0.3])
    f0 = quadrant_system.field_at(1, (1.0, 0.0))(x)
    f1 = quadrant_system.field_at(1, (0.0, 1.0))(x)
    mix = quadrant_system.field_at(1, (0.25, 0.75))(x)
    assert np.allclose(mix, 0.25 * f0 + 0.75 * f1, atol=1e-12)


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
    assert not report.has_warn
    assert report.caveats  # sampling-only caveat always present


def test_validate_warns_when_boundary_has_no_zero():
    doc = _minimal_doc()
    doc["regions"].append({"id": 2, "chi": "0", "xi": [], "witness": [0.0]})
    doc["dynamics"]["2"] = [["-x1"]]
    # chi = x1^2 + 1 has no real zero in the box
    doc["boundaries"] = [{"i": 1, "j": 2, "chi_ij": "x1^2 + 1"}]
    report = parse_system(doc).validate(samples=2000)
    assert report.has_warn
    assert any("witness" in name and status == "warn"
               for name, status, _ in report.checks)


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
