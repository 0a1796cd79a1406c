"""wortfolge benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload {generate,analyze,enumerate,cli}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.  One
client issues the next call only after the previous one returned.  With
``--trace 0`` the run measures untraced and reports the end-to-end metrics;
with ``--trace 1`` it measures half the time untraced and half traced and
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it is the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("generate", "analyze", "enumerate", "cli")
#: Fresh processes per run behind ``setup_s`` and the start-up probes.
SETUP_RUNS = 9
PROBE_RUNS = 5
#: ``peak_rss_mb`` is read once this many operations have run (or at the end
#: of a shorter run), so the per-operation samples kept until then are a fixed
#: few kilobytes however fast the engine is.
RSS_OPS = 240
CHILD_TIMEOUT_S = 60
CLI_ENTRY = "import sys; from wortfolge.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import wortfolge; "
    "from wortfolge.slots import build_slot_table; "
    "from wortfolge.lexicon import load_default_lexicon; "
    "build_slot_table(); load_default_lexicon(); print(time.perf_counter() - t)"
)
IMPORT_CODE = "import time; t = time.perf_counter(); import wortfolge.cli; print(time.perf_counter() - t)"
SIZES = range(1, 11)


def _child_env():
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _python(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=_child_env(), timeout=CHILD_TIMEOUT_S, cwd=ROOT, **kwargs,
    )


def _printed_seconds(code) -> float:
    proc = _python(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _wall_seconds(code) -> float:
    start = time.perf_counter()
    _python(["-c", code]).check_returncode()
    return time.perf_counter() - start


def _children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


# -- workloads --------------------------------------------------------------


class InProcess:
    """``generate``, ``analyze`` and ``enumerate``: engine calls in this process."""

    cpu_clock = staticmethod(time.process_time_ns)
    golden = None

    def __init__(self, name, seed):
        import checks
        import inputs
        from wortfolge.lexicon import load_default_lexicon
        from wortfolge.linearize import LinearizeError
        from wortfolge.slots import build_slot_table

        self.name = name
        self.lex = load_default_lexicon()
        self.table = build_slot_table()
        entries = sorted(self.lex.entries(), key=lambda e: (e.lemma, e.reading_id))
        if name == "generate":
            self.stream = inputs.generate_stream(seed, entries)
            self.block = len(inputs.SIZES)
        elif name == "enumerate":
            self.stream = inputs.enumerate_stream(seed, entries)
            self.block = len(inputs.SIZES)
        else:
            self.stream = inputs.analyze_stream(seed, entries, self.lex, self.table)
            self.block = inputs.ANALYZE_BLOCK
        self.check = checks.CHECKS[name]
        self._linearize_error = LinearizeError
        # Looked up at call time, so an installed tracer sees the calls.
        self._linearize = sys.modules["wortfolge.linearize"]
        self._analyze = sys.modules["wortfolge.analyze"]

    def call(self, item, tracer):
        if self.name == "generate":
            _, spec, tags = item
            try:
                return self._linearize.linearize(spec, tags, self.lex, self.table)
            except self._linearize_error as err:
                return err
        if self.name == "analyze":
            return self._analyze.analyze(item[2], self.lex, self.table)
        return self._linearize.enumerate_orders(item[1], self.lex, self.table)

    def verify(self, item, result):
        form = self.check(item, result)
        if self.golden is not None:
            self.golden.feed(form)


class CliOp:
    def __init__(self, label, mode, argv, expected, printed=None):
        self.label, self.mode, self.argv = label, mode, argv
        self.expected, self.printed = expected, printed


class Cli:
    """``cli``: each operation is one fresh ``wortfolge`` process."""

    cpu_clock = staticmethod(_children_cpu_ns)
    golden = None

    def __init__(self, seed):
        import checks

        self.check = checks.check_cli
        corpus_path = SRC / "wortfolge" / "data" / "corpus.json"
        cases = json.loads(corpus_path.read_text(encoding="utf-8"))["cases"]
        docs = WORK / "cli"
        docs.mkdir(parents=True, exist_ok=True)
        flags = {"GENERATE": ("generate", "--clause"), "ANALYZE": ("analyze", "--observed"),
                 "DISAMBIGUATE": ("disambiguate", "--candidates")}
        self.ops = []
        for case in cases:
            path = docs / f"{case['case_id']}.json"
            path.write_text(json.dumps(case["doc"], ensure_ascii=False), encoding="utf-8")
            mode = case["doc"]["mode"]
            command, flag = flags[mode]
            printed = case.get("printed") if case.get("flags", {}).get("expected_mismatch") else None
            self.ops.append(CliOp(case["case_id"], mode, [command, flag, str(path)], case["expected"], printed))
        self.ops.append(CliOp("corpus-run", "CORPUS", ["corpus", "run", str(corpus_path)], len(cases)))
        self.block = len(self.ops)
        self.spans_file = WORK / "cli-child-spans.json"
        rng = random.Random(f"cli:{seed}")

        def passes():
            while True:
                yield from rng.sample(self.ops, len(self.ops))

        self.stream = passes()

    def call(self, op, tracer):
        if tracer is None:
            return _python(["-c", CLI_ENTRY, *op.argv])
        self.spans_file.unlink(missing_ok=True)
        proc = _python([str(HERE / "traced_child.py"), str(self.spans_file), str(tracer.op), *op.argv])
        tracer.merge(json.loads(self.spans_file.read_text(encoding="utf-8")))
        return proc

    def verify(self, op, proc):
        self.check(op, proc)


def size_of(item):
    """Clause size n of an in-process item, 0 for a CLI operation."""
    return item[0] if isinstance(item, tuple) else 0


# -- measurement ------------------------------------------------------------


class Phase:
    """Latencies, CPU times and sizes of one closed-loop measurement.

    Throughput and CPU time describe a typical block, since every block has
    the same input mix.  For unique inputs that is the median block.  The
    ``cli`` workload repeats the same calls every pass, so there it is the
    sum of each call's median, and the latency percentiles are taken over
    those medians.  Either way, a burst of machine noise moves only a few
    samples.
    """

    def __init__(self, block, keyed):
        self.block = block
        self.keys = [] if keyed else None
        self.latencies_ms = array("d")
        self.cpu_ms = array("d")
        self.sizes = array("b")
        self.probes = []
        self.peak_rss_kb = None
        self.rss_ops = 0

    @property
    def ops(self):
        return len(self.latencies_ms)

    def _medians_by_key(self, values):
        by_key = {}
        for key, value in zip(self.keys, values):
            by_key.setdefault(key, []).append(value)
        return [statistics.median(v) for v in by_key.values()]

    def _typical_block(self, values):
        if self.keys is not None:
            return sum(self._medians_by_key(values))
        whole = self.ops - self.ops % self.block
        return statistics.median(sum(values[i:i + self.block]) for i in range(0, whole, self.block))

    @property
    def ops_per_s(self):
        return 1000.0 * self.block / self._typical_block(self.latencies_ms)

    @property
    def cpu_ms_per_op(self):
        return self._typical_block(self.cpu_ms) / self.block

    @property
    def latency_sample(self):
        """Latencies behind the percentiles: one median per call for ``cli``."""
        if self.keys is not None:
            return sorted(self._medians_by_key(self.latencies_ms))
        return sorted(self.latencies_ms)

    def by_size(self, n):
        samples = [lat for lat, size in zip(self.latencies_ms, self.sizes) if size == n]
        return statistics.median(samples) if samples else 0.0


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _one(self, tracer, phase):
        """Run, time and check one operation."""
        workload = self.workload
        item = next(workload.stream)
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        c0 = workload.cpu_clock()
        t0 = time.perf_counter_ns()
        failure = None
        try:
            result = workload.call(item, tracer)
        except Exception as err:  # an unexpected error fails the operation, not the run
            failure = err
        t1 = time.perf_counter_ns()
        c1 = workload.cpu_clock()
        if tracer is not None:
            tracer.op = None
        if phase is not None:
            phase.latencies_ms.append((t1 - t0) / 1e6)
            phase.cpu_ms.append((c1 - c0) / 1e6)
            phase.sizes.append(size_of(item))
            if phase.keys is not None:
                phase.keys.append(item.label)
        if failure is None:
            try:
                workload.verify(item, result)
            except Exception as err:
                failure = err
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(failure).__name__}: {failure}")

    def measure(self, seconds, tracer=None, probe=None, probes=0, rss=None) -> Phase:
        """Whole blocks of operations until ``seconds`` have passed.

        ``probe`` is called ``probes`` times, spread evenly over the run
        between blocks, and its results are kept in ``phase.probes``.
        ``rss`` is called once, at the first block boundary at or after
        ``RSS_OPS`` operations or at the end, into ``phase.peak_rss_kb``.
        """
        phase = Phase(self.workload.block, keyed=isinstance(self.workload, Cli))
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            for _ in range(self.workload.block):
                self._one(tracer, phase)
            if rss is not None and phase.peak_rss_kb is None and phase.ops >= RSS_OPS:
                phase.peak_rss_kb, phase.rss_ops = rss(), phase.ops
            now = time.perf_counter()
            if len(phase.probes) < probes and now >= start + seconds * len(phase.probes) / probes:
                phase.probes.append(probe())
            if now >= deadline:
                break
        while len(phase.probes) < probes:
            phase.probes.append(probe())
        if rss is not None and phase.peak_rss_kb is None:
            phase.peak_rss_kb, phase.rss_ops = rss(), phase.ops
        return phase

    def finish(self):
        """Complete the last recorded-results chunk (checked, not timed)."""
        golden = self.workload.golden
        if golden is None:
            return
        while golden.mid_chunk:
            self._one(None, None)
        bad = len(golden.mismatched_chunks)
        if bad:
            self.failed += bad * golden.chunk
            self.messages.append(f"recorded-result chunks differ: {golden.mismatched_chunks[:10]}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase):
    latencies = phase.latency_sample
    return {
        "ops_per_s": _metric(phase.ops_per_s, "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies), "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(latencies, n=10)[-1], "ms"),
        "cpu_ms_per_op": _metric(phase.cpu_ms_per_op, "ms"),
        "setup_s": _metric(statistics.median(phase.probes), "s"),
        "peak_rss_mb": _metric(phase.peak_rss_kb / 1024.0, "MB"),
    }


COUNTED = (
    "clause.validate_clause", "slots.check_cooccurrence", "lexicon.Lexicon.get",
    "slots.sort_key", "slots.all_sort_keys", "slots.typically_rhematic", "linearize.realizations",
)
INCLUSIVE = (
    "slots.sort_key", "slots.all_sort_keys", "analyze.detect_focus_constructions",
    "disambiguate.rank_readings", "documents.verify_lexicon_keys",
)
SELF = (
    "linearize.linearize", "linearize.realizations", "linearize.enumerate_orders",
    "analyze.explain_order", "analyze.analyze",
)


def _is_parse(name):
    return name.startswith("documents.parse_") or name == "documents.load_document"


def per_layer(tracer, traced: Phase, untraced: Phase, workload_name, probes, error_ratio):
    ops = traced.ops
    stats = lambda name: tracer.stats.get(name, (0, 0, 0, 0))  # noqa: E731
    metrics = {}
    metrics["cli.interp_start_ms"] = _metric(probes["interp_start_ms"], "ms")
    metrics["cli.import_ms"] = _metric(probes["import_ms"], "ms")
    calls, _, self_ns, _ = stats("cli.main")
    metrics["cli.main.self_ms"] = _metric(self_ns / 1e6 / calls if calls else 0.0, "ms")
    metrics["lexicon.load_default_lexicon.ms"] = _metric(probes["lexicon_ms"], "ms")
    metrics["slots.build_slot_table.ms"] = _metric(probes["slot_table_ms"], "ms")
    parse_ns = sum(
        incl for key, (_, incl) in tracer.edges.items()
        if _is_parse(key.split("|")[1]) and not _is_parse(key.split("|")[0])
    )
    metrics["documents.parse.ms_per_op"] = _metric(parse_ns / 1e6 / ops, "ms/op")
    for name in COUNTED:
        metrics[f"{name}.calls_per_op"] = _metric(stats(name)[0] / ops, "calls/op")
    for name in INCLUSIVE:
        metrics[f"{name}.ms_per_op"] = _metric(stats(name)[1] / 1e6 / ops, "ms/op")
    for name in SELF:
        metrics[f"{name}.self_ms_per_op"] = _metric(stats(name)[2] / 1e6 / ops, "ms/op")
    searched = tracer.edges.get("analyze.explain_order|linearize.realizations", (0, 0))[0]
    found = stats("analyze.explain_order")[3]
    metrics["analyze.explain_order.useful_ratio"] = _metric(found / searched if searched else 0.0, "ratio")
    calls, incl, _, _ = stats("corpus.run_corpus")
    metrics["corpus.run_corpus.ms"] = _metric(incl / 1e6 / calls if calls else 0.0, "ms")
    for prefix, owner in (("analyze.ms_by_n", "analyze"), ("linearize.enumerate_orders.ms_by_n", "enumerate")):
        for n in SIZES:
            value = untraced.by_size(n) if workload_name == owner else 0.0
            metrics[f"{prefix}.n{n:02d}"] = _metric(value, "ms")
    metrics["trace.overhead_ratio"] = _metric(traced.ops_per_s / untraced.ops_per_s, "ratio")
    metrics["error_ratio"] = _metric(error_ratio, "ratio")
    return metrics


def _data_load_probes():
    """Median in-process load times of the shipped lexicon and uncached slot table."""
    from wortfolge.lexicon import load_default_lexicon
    from wortfolge.slots import build_slot_table

    lexicon_ms, table_ms = [], []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter_ns()
        load_default_lexicon()
        t1 = time.perf_counter_ns()
        build_slot_table.cache_clear()
        build_slot_table()
        t2 = time.perf_counter_ns()
        lexicon_ms.append((t1 - t0) / 1e6)
        table_ms.append((t2 - t1) / 1e6)
    return statistics.median(lexicon_ms), statistics.median(table_ms)


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wortfolge" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wortfolge

    import checks

    if Path(wortfolge.__file__).resolve().parent != SRC / "wortfolge":
        print(f"perfbench: imported wortfolge from {wortfolge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = Cli(args.seed) if args.workload == "cli" else InProcess(args.workload, args.seed)
    workload.golden = checks.load_golden(args.workload, args.seed)
    runner = Runner(workload)
    env = {
        "commit": _commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "clients": 1, "loop": "closed",
    }

    if args.trace == 0:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        phase = runner.measure(
            args.seconds, probe=lambda: _printed_seconds(SETUP_CODE), probes=SETUP_RUNS,
            rss=lambda: resource.getrusage(who).ru_maxrss,
        )
        runner.finish()
        metrics = end_to_end(phase)
        env["samples"] = {
            "operations": phase.ops, "blocks": phase.ops // phase.block,
            "percentiles": len(phase.latency_sample), "setup": len(phase.probes),
            "rss_after_operations": phase.rss_ops,
        }
    else:
        from tracer import Tracer

        interp = [_wall_seconds("pass") * 1000 for _ in range(PROBE_RUNS)]
        imports = [_printed_seconds(IMPORT_CODE) * 1000 for _ in range(PROBE_RUNS)]
        lexicon_ms, table_ms = _data_load_probes()
        probes = {
            "interp_start_ms": statistics.median(interp), "import_ms": statistics.median(imports),
            "lexicon_ms": lexicon_ms, "slot_table_ms": table_ms,
        }
        untraced = runner.measure(args.seconds / 2)
        tracer = Tracer()
        if args.workload != "cli":
            tracer.install()
        try:
            traced = runner.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        runner.finish()
        tracer.dump(WORK / f"spans-{args.workload}.json")
        error_ratio = runner.failed / runner.attempted
        metrics = per_layer(tracer, traced, untraced, args.workload, probes, error_ratio)
        env["samples"] = {
            "untraced": untraced.ops, "traced": traced.ops, "probes": PROBE_RUNS,
            "ms_by_n": {f"n{n:02d}": sum(1 for s in untraced.sizes if s == n) for n in SIZES},
        }
    golden = workload.golden
    env["recorded_results_checked"] = golden.checked if golden is not None else 0
    env["error_ratio"] = runner.failed / runner.attempted
    for message in runner.messages:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
