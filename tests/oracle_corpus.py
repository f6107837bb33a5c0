"""The oracle corpus whose reports tests/test_oracle.py pins.

The published family on quadrant-cubic.sys and two copies with the sign of
one pure-power term flipped (x1^6 of piece 1, x2^4 of piece 2) at oracle
seeds 0, 5 and 11; the published family with no attractive pairs; the
published family on a copy of the system with a small box, whose x2 side
is the single value 0, so every boundary draw is an exact zero; the
published family with oracle.BOUNDARY_SAMPLES set to 7; and x1^2 + x2^2
on opposing-fields.sys and aligned-fields.sys.  Each report is digested
as the sha256 of json.dumps(report.to_dict()).

Apart from those, `half_spaces_3d` is a 3-D system, two half-spaces split
by x3 = 0 on the box [-2, 2]^3, with x1^2 + x2^2 + x3^2 as the family:
at the default sampling sizes its grid alone is 101^3 points.  Its second
vertex field rotates about the x3 axis, so its Lie derivative is 0 on the
whole plane x3 = 0 and the worst case of lie_region is a tie of many
points.

A change that alters oracle reports on purpose prints the new digests with

    PYTHONPATH=src python tests/oracle_corpus.py

and pastes them into PINNED_REPORT_DIGESTS in tests/test_oracle.py, and
the 3-D digest, printed last, into PINNED_3D_DIGEST.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

SEEDS = (0, 5, 11)
FLIPS = (("x1^6", 1, (6, 0)), ("x2^4", 2, (0, 4)))   # (name, piece, monomial)
SMALL_BOX = ((-0.5, 0.0), (0.5, 0.0))


HALF_SPACES_3D = {
    "dimension": 3,
    "box": [[-2.0, 2.0]] * 3,
    "regions": [
        {"id": 1, "chi": "0", "xi": ["x3"], "witness": [0.0, 0.0, 1.0]},
        {"id": 2, "chi": "0", "xi": ["-x3"], "witness": [0.0, 0.0, -1.0]},
    ],
    "boundaries": [{"i": 1, "j": 2, "chi_ij": "x3", "witness": [1.0, 0.0, 0.0]}],
    "dynamics": {
        "1": [["-x1", "-x2", "-1"], ["x2", "-x1", "-x3"]],
        "2": [["-x1", "-x2", "1"], ["x2", "-x1", "-x3"]],
    },
    "origin_regions": [1, 2],
}


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()


def quadrant_families():
    """(quadrant-cubic system, name -> family): the published family and
    its FLIPS copies."""
    from swsos.cli import load_lyapunov
    from swsos.poly import Polynomial
    from swsos.system import load_system

    quadrant = load_system(SYSTEMS / "quadrant-cubic.sys")
    published = load_lyapunov(str(SYSTEMS / "quadrant-cubic-V-stripped.lyap"),
                              quadrant)
    families = {"published": published}
    for name, rid, mono in FLIPS:
        terms = dict(published[rid].terms)
        terms[mono] = -terms[mono]
        families[f"flip {name}"] = {**published, rid: Polynomial(2, terms)}
    return quadrant, families


def half_spaces_3d():
    """(system, family) of the 3-D half-space case."""
    from swsos.poly import parse_polynomial
    from swsos.system import parse_system

    sys_ = parse_system(HALF_SPACES_3D)
    V = parse_polynomial("x1^2 + x2^2 + x3^2", 3)
    return sys_, {rid: V for rid in sys_.regions}


def digests() -> dict:
    """Run name -> sha256 hex digest of its report."""
    from dataclasses import replace

    import numpy as np
    from swsos import oracle
    from swsos.oracle import OracleConfig, verify_certificate
    from swsos.poly import parse_polynomial
    from swsos.system import load_system

    def run(sys_, family, cfg, attractive_pairs=None):
        return digest(verify_certificate(sys_, family, cfg,
                                         attractive_pairs=attractive_pairs))

    quadrant, families = quadrant_families()
    published = families["published"]
    out = {}
    for name, family in families.items():
        for seed in SEEDS:
            out[f"{name} seed{seed}"] = run(quadrant, family,
                                            OracleConfig(seed=seed))
    out["published no pairs"] = run(quadrant, published, OracleConfig(),
                                    attractive_pairs=[])
    small = replace(quadrant, box=tuple(np.array(side) for side in SMALL_BOX))
    out["published small box"] = run(small, published, OracleConfig())
    saved, oracle.BOUNDARY_SAMPLES = oracle.BOUNDARY_SAMPLES, 7
    try:
        out["published boundary_samples7"] = run(quadrant, published,
                                                 OracleConfig())
    finally:
        oracle.BOUNDARY_SAMPLES = saved
    for stem in ("opposing-fields", "aligned-fields"):
        sys_ = load_system(SYSTEMS / f"{stem}.sys")
        family = {rid: parse_polynomial("x1^2 + x2^2", 2) for rid in sys_.regions}
        out[f"{stem} x1^2 + x2^2"] = run(sys_, family, OracleConfig())
    return out


if __name__ == "__main__":
    from swsos.oracle import verify_certificate

    for name, hexdigest in digests().items():
        print(f"    {name!r}: {hexdigest!r},")
    print("3-D half spaces:", digest(verify_certificate(*half_spaces_3d())))
