import json
from dataclasses import replace

import numpy as np
import pytest

from swsos.poly import parse_vector
from swsos.system import (SwitchedSystem, SystemFormatError, load_system,
                          parse_system, system_to_dict)


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
    # a JSON integer too large for a float: float() raises OverflowError
    lambda d: d["box"].__setitem__(0, [-1, 2 * 10 ** 400]),
])
def test_malformed_documents_rejected(mutate):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SystemFormatError):
        parse_system(doc)


def _two_dimensional_doc():
    doc = _minimal_doc()
    doc.update(dimension=2, box=[[-2, 2], [-2, 2]], dynamics={"1": [["-x1", "-x2"]]})
    doc["regions"][0]["witness"] = [0.5, 0.5]
    return doc


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(box=["24", "24"]), r"box pair must be a list of 2 numbers, not '24'"),
    (lambda d: d["box"].__setitem__(0, [-2, 2, 99]),
     r"box pair must be a list of 2 numbers, not \[-2, 2, 99\]"),
    (lambda d: d["box"].__setitem__(0, ["-2", "2"]),
     r"box pair must be a list of 2 numbers, not \['-2', '2'\]"),
    (lambda d: d["box"].__setitem__(0, [True, 2]),
     r"box pair must be a list of 2 numbers, not \[True, 2\]"),
    (lambda d: d["regions"][0].__setitem__("witness", "11"),
     r"region 1 witness must be a list of 2 numbers, not '11'"),
    (lambda d: d["regions"][0].__setitem__("witness", [True, True]),
     r"region 1 witness must be a list of 2 numbers, not \[True, True\]"),
    (lambda d: d.update(
        regions=d["regions"] + [{"id": 2, "chi": "0", "xi": [], "witness": [-0.5, 0.5]}],
        boundaries=[{"i": 1, "j": 2, "chi_ij": "x1", "witness": "00"}],
        dynamics={"1": [["-x1", "-x2"]], "2": [["-x1", "-x2"]]}),
     r"boundary \(1,2\) witness must be a list of 2 numbers, not '00'"),
], ids=["box-strings", "box-pair-of-three", "box-pair-of-strings", "box-bool",
        "region-witness-string", "region-witness-bools", "boundary-witness-string"])
def test_box_pairs_and_witnesses_are_lists_of_numbers(mutate, message):
    # strings, booleans and over-long lists used to be read as numbers:
    # "24" as the pair (2, 4), True as 1, and [-2, 2, 99] as [-2, 2]
    doc = _two_dimensional_doc()
    assert parse_system(doc).dimension == 2
    mutate(doc)
    with pytest.raises(SystemFormatError, match=f"^{message}$"):
        parse_system(doc)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["dynamics"].__setitem__("1", []), "region 1 has no dynamics"),
    (lambda d: d["dynamics"].pop("1"), "region 1 has no dynamics"),
    (lambda d: d["dynamics"].__setitem__("9", [["-x1"]]),
     "dynamics for unknown region 9"),
    (lambda d: d["dynamics"].__setitem__("1", [["-x1"], ["-x1", "x1"]]),
     r"region 1 vertex field 1 has 2 components in 1 variables, not 1 in 1"),
], ids=["empty", "missing", "unknown-region", "two-components"])
def test_region_dynamics_messages(mutate, message):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(SystemFormatError, match=message):
        parse_system(doc)


def test_vertex_field_in_wrong_number_of_variables_refused():
    # two components, as the dimension asks, but in three variables: this
    # used to be accepted and fail only at the first Lie derivative
    doc = _minimal_doc()
    doc.update(dimension=2, box=[[-1.0, 1.0]] * 2, dynamics={"1": [["-x1", "-x2"]]})
    doc["regions"][0]["witness"] = [0.5, 0.5]
    sys_ = parse_system(doc)
    region = replace(sys_.regions[1], vertices=[parse_vector(["-x1", "-x2"], 3)])
    with pytest.raises(SystemFormatError,
                       match="has 2 components in 3 variables, not 2 in 2"):
        SwitchedSystem(dimension=2, box=sys_.box, regions={1: region},
                       boundaries=[], origin_regions={1})


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
    # in unstable-scalar.sys) columns still get a mask.  So do constant
    # chi and xi of either sign, and a chi that reads the point
    from swsos.poly import parse_polynomial
    from swsos.system import SemiAlgebraicRegion
    nan, inf = float("nan"), float("inf")
    points = [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (-0.0, 1.0), (2.0, 3.0),
              (-1e-7, 1.0), (1.0, 1.0 - 1e-7), (-1.0, 2.0), (1.0, 0.0),
              (nan, 2.0), (1.0, nan), (nan, nan), (inf, 2.0), (-inf, 2.0),
              (1.0, inf), (1.0, -inf), (inf, -inf)]
    cols = np.ascontiguousarray(np.array(points).T)
    for chi, xi in [("0", ["x1", "x2 - 1"]), ("0", []), ("5e-7", ["x1"]),
                    ("2", []), ("0", ["0.5", "x2"]), ("0", ["-5e-7"]),
                    ("x1 - x2 + 1", ["x1"])]:
        region = SemiAlgebraicRegion(
            rid=1, chi=parse_polynomial(chi, 2),
            xi=[parse_polynomial(g, 2) for g in xi], witness=np.array([1.0, 2.0]))
        expected = [region.contains(list(p), tol) for p in points]
        mask = region.contains(cols, tol)
        assert mask.dtype == bool and mask.shape == (len(points),)
        assert mask.flags.writeable
        assert mask.tolist() == expected


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


def test_conditions_list_every_condition_in_one_order(quadrant_system):
    sys_ = quadrant_system
    r1, r2, b = sys_.regions[1], sys_.regions[2], sys_.boundary(1, 2)
    conditions = sys_.conditions()
    assert [(c.kind, c.rid, c.subject, c.cid, c.vertex) for c in conditions] == [
        ("positivity", 1, "region 1", "pd1", None),
        ("lie_region", 1, "region 1, vertex 0", "lie1v0", 0),
        ("lie_region", 1, "region 1, vertex 1", "lie1v1", 1),
        ("positivity", 2, "region 2", "pd2", None),
        ("lie_region", 2, "region 2, vertex 0", "lie2v0", 0),
        ("continuity", None, "boundary (1,2)", None, None),
        ("lie_boundary", 1, "boundary (1,2), vertex 0", "cross1_2v0", 0),
        ("lie_boundary", 2, "boundary (2,1), vertex 0", "cross2_1v0", 0),
        ("lie_boundary", 2, "boundary (2,1), vertex 1", "cross2_1v1", 1),
    ]
    # a decrease condition's field is a vertex of the region on its side
    # of the variety: its own for lie_region, the other one for lie_boundary
    assert [c.field for c in conditions] == [
        None, *r1.vertices, None, *r2.vertices, None, *r2.vertices, *r1.vertices]
    assert [c.domain for c in conditions] == [r1] * 3 + [r2] * 2 + [b] * 4


@pytest.mark.parametrize("pairs", [[(1, 2)], [(2, 1)], [(1, 2), (2, 1)],
                                   [(2, 1), (2, 1)]])
def test_conditions_pair_names_its_boundary_in_either_order_once(
        quadrant_system, pairs):
    assert ([vars(c) for c in quadrant_system.conditions(pairs)]
            == [vars(c) for c in quadrant_system.conditions()])


def test_conditions_without_pairs_keep_continuity(quadrant_system):
    kinds = [c.kind for c in quadrant_system.conditions([])]
    assert kinds.count("continuity") == 1 and "lie_boundary" not in kinds


def test_conditions_pair_naming_no_boundary(quadrant_system):
    with pytest.raises(KeyError):
        quadrant_system.conditions([(1, 3)])


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


@pytest.mark.parametrize("tol", [0.0, -1e-9])
def test_locate_needs_a_positive_tolerance(quadrant_system, tol):
    with pytest.raises(ValueError, match=r"^tol must be > 0$"):
        quadrant_system.locate((1.0, 1.0), tol=tol)


def test_boundary_naming_an_unknown_region_is_refused(systems_dir):
    doc = json.loads((systems_dir / "quadrant-cubic.sys").read_text())
    doc["boundaries"][0]["j"] = 7
    with pytest.raises(SystemFormatError,
                       match=r"^boundary \(1,7\) references unknown region$"):
        parse_system(doc)


def test_validate_warns_when_the_boundary_witness_leaves_a_region(systems_dir):
    # (0, 1) lies on chi_ij = x1 and in region 1 (x2 >= 0), not in region 2
    doc = json.loads((systems_dir / "opposing-fields.sys").read_text())
    doc["boundaries"][0].update(chi_ij="x1", witness=[0.0, 1.0])
    report = parse_system(doc).validate()
    assert [c for c in report.checks if c[1] != "pass"] == [
        ("boundary[1,2].adjacency[2]", "warn",
         "boundary witness not in closure of region 2")]
