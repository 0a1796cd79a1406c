"""Record the golden-seed results that ``checks.Golden`` compares against.

Usage: ``python3 perfbench/record_golden.py [WORKLOAD...]`` from the root of
a checkout.  Rewrites the named workloads (default: all in-process ones) in
``perfbench/golden.json`` with chunk digests of the canonical results of
their first operations.  Run it only when a change is meant to alter the
engine's answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import InProcess  # noqa: E402

#: (chunk, operations covered); a chunk is a whole number of input blocks.
COVERAGE = {"generate": (1000, 400_000), "analyze": (60, 3000), "enumerate": (10, 3000)}


def record(name):
    chunk, total = COVERAGE[name]
    workload = InProcess(name, checks.GOLDEN_SEED)
    workload.golden = checks.Golden(chunk)
    for _ in range(total):
        item = next(workload.stream)
        workload.verify(item, workload.call(item, None))
    return {"chunk": chunk, "digests": workload.golden.digests}


def main():
    names = sys.argv[1:] or list(COVERAGE)
    golden = json.loads(checks.GOLDEN_PATH.read_text()) if checks.GOLDEN_PATH.exists() else {}
    for name in names:
        golden[name] = record(name)
        print(f"{name}: {len(golden[name]['digests'])} chunks", file=sys.stderr)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
