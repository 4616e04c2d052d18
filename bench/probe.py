"""Set-up probe: a fresh interpreter imports dpoterm from src/ and builds
one workload's inputs, then exits. run.py times it from outside.

    python3 bench/probe.py WORKLOAD SEED
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2]))
