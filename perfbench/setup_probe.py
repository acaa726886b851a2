"""Print the set-up time of one workload, measured in a fresh interpreter.

Set-up is the import of bettistab (with its CLI module) plus building the
workload's inputs from the seed.  `run.py` starts this script a few times
and reports the median, so that work moved into import or input building
shows in `setup_s`.

    python3 perfbench/setup_probe.py --workload cli --seed 1
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        start = time.perf_counter()
        bettistab = importlib.import_module("bettistab")
        importlib.import_module("bettistab.cli")
        workloads.build(bettistab, args.workload, args.seed, Path(workdir))
        elapsed = time.perf_counter() - start
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
