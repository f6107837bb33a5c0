import json
from pathlib import Path

import pytest

from swsos.poly import parse_polynomial
from swsos.system import load_system

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"


@pytest.fixture(scope="session")
def systems_dir():
    return SYSTEMS


@pytest.fixture(scope="session")
def quadrant_system():
    return load_system(SYSTEMS / "quadrant-cubic.sys")


@pytest.fixture(scope="session")
def published_lyapunov(quadrant_system):
    doc = json.loads((SYSTEMS / "quadrant-cubic-V-stripped.lyap").read_text())
    return {int(rid): parse_polynomial(text, quadrant_system.dimension)
            for rid, text in doc["lyapunov"].items()}


@pytest.fixture(scope="session")
def opposing_system():
    return load_system(SYSTEMS / "opposing-fields.sys")


@pytest.fixture(scope="session")
def unstable_system():
    return load_system(SYSTEMS / "unstable-scalar.sys")


@pytest.fixture
def small_oracle(monkeypatch):
    """Shrink the oracle's sampling sizes, for tests that need a sampled
    check rather than the full one."""
    from swsos import oracle
    monkeypatch.setattr(oracle, "GRID_PER_DIM", 21)
    monkeypatch.setattr(oracle, "RANDOM_SAMPLES", 2000)
    monkeypatch.setattr(oracle, "BOUNDARY_SAMPLES", 100)
