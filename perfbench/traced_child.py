"""Run one ``wortfolge`` CLI call with the benchmark tracer installed.

Usage: ``python3 perfbench/traced_child.py SPANS_FILE OP_ID ARG...``, with
``src`` on ``PYTHONPATH``.  The spans and per-layer totals of the call are
written to SPANS_FILE when it ends; the exit code is the CLI's.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import wortfolge.cli  # noqa: F401  (loads every module the tracer wraps)

    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return sys.modules["wortfolge.cli"].main(argv)
    finally:
        tracer.op = None
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
