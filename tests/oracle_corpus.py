"""The oracle corpus whose reports tests/test_oracle.py pins.

The published family on quadrant-cubic.sys and two copies with the sign of
one pure-power term flipped (x1^6 of piece 1, x2^4 of piece 2) at oracle
seeds 0, 5 and 11; the published family with no attractive pairs; two
OracleConfig variants (a small box whose x2 side is the single value 0,
so every boundary draw is an exact zero, and boundary_samples=7); and
x1^2 + x2^2 on opposing-fields.sys and aligned-fields.sys.  Each report
is digested as the sha256 of json.dumps(report.to_dict()).
A change that alters oracle reports on purpose prints the new digests with

    PYTHONPATH=src python tests/oracle_corpus.py

and pastes them into PINNED_REPORT_DIGESTS in tests/test_oracle.py.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

SEEDS = (0, 5, 11)
FLIPS = (("x1^6", 1, (6, 0)), ("x2^4", 2, (0, 4)))   # (name, piece, monomial)
SMALL_BOX = ((-0.5, 0.0), (0.5, 0.0))


def digests() -> dict:
    """Run name -> sha256 hex digest of its report."""
    import numpy as np
    from swsos.cli import load_lyapunov
    from swsos.oracle import OracleConfig, verify_certificate
    from swsos.poly import Polynomial, parse_polynomial
    from swsos.system import load_system

    def digest(sys_, family, cfg, attractive_pairs=None):
        report = verify_certificate(sys_, family, cfg,
                                    attractive_pairs=attractive_pairs)
        return hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()

    quadrant = load_system(SYSTEMS / "quadrant-cubic.sys")
    published = load_lyapunov(str(SYSTEMS / "quadrant-cubic-V-stripped.lyap"),
                              quadrant)
    families = {"published": published}
    for name, rid, mono in FLIPS:
        terms = dict(published[rid].terms)
        terms[mono] = -terms[mono]
        families[f"flip {name}"] = {**published, rid: Polynomial(2, terms)}
    out = {}
    for name, family in families.items():
        for seed in SEEDS:
            out[f"{name} seed{seed}"] = digest(quadrant, family,
                                               OracleConfig(seed=seed))
    out["published no pairs"] = digest(quadrant, published, OracleConfig(),
                                       attractive_pairs=[])
    box = tuple(np.array(side) for side in SMALL_BOX)
    out["published small box"] = digest(quadrant, published, OracleConfig(box=box))
    out["published boundary_samples7"] = digest(
        quadrant, published, OracleConfig(boundary_samples=7))
    for stem in ("opposing-fields", "aligned-fields"):
        sys_ = load_system(SYSTEMS / f"{stem}.sys")
        family = {rid: parse_polynomial("x1^2 + x2^2", 2) for rid in sys_.regions}
        out[f"{stem} x1^2 + x2^2"] = digest(sys_, family, OracleConfig())
    return out


if __name__ == "__main__":
    for name, hexdigest in digests().items():
        print(f"    {name!r}: {hexdigest!r},")
