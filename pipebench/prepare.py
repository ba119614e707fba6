"""One fresh-interpreter set-up of a workload (timed by the benchmark).

Usage: ``python3 pipebench/prepare.py WORKLOAD SEED DIR``

Imports the program, builds the workload's inputs from the seed and, for
workloads that serve a store, writes it under DIR.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parents[1] / "src")]

from pipebench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, root = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name]().prepare(seed, root)
