"""Every recorded perfbench answer, through the unmodified workload and checker.

``perfbench/golden.json`` holds digests of the answers to the golden seed's
``analyze``, ``enumerate`` and ``generate`` streams, in chunks.  A timed
``perfbench/run.py`` run compares only the chunks its seconds reach; this
feeds every recorded item of each stream through perfbench's own
``InProcess`` workload and ``checks`` verifier: the first 3,000 items of
``analyze`` and ``enumerate`` and the first 400,000 of ``generate`` (about
30 s, nearly all of it ``generate``).  It imports only ``perfbench/``, which
imports the engine from ``src/``.

    PYTHONPATH=src:. python -m tests.recorded_answers
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
from run import InProcess  # noqa: E402

ITEMS = {"analyze": 3000, "enumerate": 3000, "generate": 400000}


def check_every_recorded_answer() -> None:
    for name, items in ITEMS.items():
        workload = InProcess(name, checks.GOLDEN_SEED)
        golden = workload.golden = checks.load_golden(name, checks.GOLDEN_SEED)
        assert items == golden.chunk * len(golden.digests), (name, golden.chunk)
        for item in itertools.islice(workload.stream, items):
            workload.verify(item, workload.call(item, None))
        assert golden.checked == items, (name, golden.checked)
        assert not golden.mismatched_chunks, (name, golden.mismatched_chunks)
        print(f"{name}: all {golden.checked} recorded answers match")


if __name__ == "__main__":
    check_every_recorded_answer()
