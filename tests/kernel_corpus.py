"""The generated kernel sources whose digests tests/test_kernels.py pins.

The smooth kernel of each region of quadrant-cubic.sys and its sliding
kernel on x1*x2 = 0, at theta 0, 0.5 and 1 (the two-vertex region at
(v, 1 - v), the other at its first vertex), as simulate builds them.  No
term list of this system is constant, so nothing in these kernels is
hoisted out of the segment loop; the digests pin that their source stays
as it was.  Each source is the text _kernels compiles, digested with
sha256.  A change that alters kernel sources on purpose prints the new
digests with

    PYTHONPATH=src python tests/kernel_corpus.py

and pastes them into PINNED_KERNEL_DIGESTS in tests/test_kernels.py.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

THETAS = (0.0, 0.5, 1.0)


def _source(generate, n, term_lists) -> str:
    from swsos import _kernels
    shape, _, first = _kernels._layout(term_lists)
    return "\n".join(generate(n, shape, first)) + "\n"


def sources() -> dict:
    """Kernel name -> its generated source."""
    from swsos import _kernels
    from swsos.cli import _theta_table
    from swsos.system import load_system

    def terms(vec):
        return tuple(p._term_list() for p in vec)

    quadrant = load_system(SYSTEMS / "quadrant-cubic.sys")
    n = quadrant.dimension
    chis = tuple(b.chi._term_list() for b in quadrant.boundaries)
    out = {}
    for v in THETAS:
        table = _theta_table(quadrant, (v, 1.0 - v))
        fields = {rid: terms(quadrant.field_at(rid, table.get(rid)))
                  for rid in sorted(quadrant.regions)}
        for rid, field in fields.items():
            out[f"smooth {rid} theta{v:g}"] = _source(
                _kernels._smooth_lines, n, (*field, *chis))
        for b in quadrant.boundaries:
            out[f"sliding {b.i},{b.j} theta{v:g}"] = _source(
                _kernels._sliding_lines, n,
                (*terms(b.chi.gradient()), *fields[b.i], *fields[b.j],
                 b.chi._term_list()))
    return out


def digests() -> dict:
    """Kernel name -> sha256 hex digest of its generated source."""
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sources().items()}


if __name__ == "__main__":
    for name, hexdigest in digests().items():
        print(f"    {name!r}: {hexdigest!r},")
