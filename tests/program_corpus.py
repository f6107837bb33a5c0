"""The SOS programs whose digest tests/test_sos.py pins.

Every shipped system (each `.sys` file under systems/) assembled by
certify.build_feasibility at Lyapunov degrees 2, 4, 6, 8 and 10, once with
cross_pairs=None (cross conditions on both orders of every boundary) and
once with cross_pairs=[] (none), then every program check_attractivity
assembles on each system's boundaries, with a solve that answers optimal
so that every vertex pair is tried.  Each program is digested with
`problem_digest`, which covers the triplet arrays as they are built, so
it sees their order where densified matrices cannot; the corpus digest is
the sha256 of every program's name and digest, in corpus order.  A change
that alters programs on purpose prints the new digest with

    PYTHONPATH=src python tests/program_corpus.py

and pastes it into PINNED_PROGRAM_CORPUS_DIGEST in tests/test_sos.py.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

DEGREES = (2, 4, 6, 8, 10)


def shipped() -> list:
    """The names of the shipped systems, sorted."""
    return sorted(p.stem for p in SYSTEMS.glob("*.sys"))


def problem_digest(problem) -> str:
    """sha256 of an SdpProblem's arrays as built, its blocks, its scalar
    names and its Gram layout."""
    h = hashlib.sha256()
    for arr in (*problem.A, *problem.F, problem.b, problem.c):
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    h.update(repr((problem.psd_blocks, problem.free_scalars,
                   sorted(problem.gram_layout.items()))).encode())
    return h.hexdigest()


def programs():
    """(name, SdpProblem) for every program of the corpus, in corpus order."""
    import swsos.certify as certify_module
    from swsos.backend import FEASIBLE, SdpSolution
    from swsos.system import load_system

    seen = []

    def optimal(problem):
        seen.append(problem)
        return SdpSolution(FEASIBLE, solver_status="native:optimal:1")

    for name in shipped():
        sys_ = load_system(SYSTEMS / f"{name}.sys")
        for degree in DEGREES:
            cfg = certify_module.CertificationConfig(lyapunov_degree=degree)
            for label, pairs in (("all", None), ("none", [])):
                problem, _ = certify_module.build_feasibility(sys_, cfg, cross_pairs=pairs)
                yield f"{name} degree {degree} cross {label}", problem
        solve = certify_module.solve
        certify_module.solve = optimal
        try:
            for b in sys_.boundaries:
                certify_module.check_attractivity(sys_, b.pair)
        finally:
            certify_module.solve = solve
        for k, problem in enumerate(seen):
            yield f"{name} attractivity {k}", problem
        seen.clear()


def digests() -> dict:
    """Program name -> problem_digest of the program."""
    return {name: problem_digest(problem) for name, problem in programs()}


def corpus_digest() -> str:
    h = hashlib.sha256()
    for name, hexdigest in digests().items():
        h.update(f"{name}\t{hexdigest}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(repr(corpus_digest()))
