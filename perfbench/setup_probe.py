"""Set-up probe: seconds a fresh process spends importing swsos and loading
one workload's inputs before its first operation.

    python3 perfbench/setup_probe.py <workload>

run.py starts this several times per run, one process at a time, and
reports the median as setup_s.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].load(HERE.parent)
print(repr(time.perf_counter() - T0))
