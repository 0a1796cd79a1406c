"""Output checks behind ``failed`` and ``error_ratio``.

Every operation is checked against seed-independent invariants.  For the
golden seed, results are also compared with the ones recorded in
``golden.json``: each workload's results are hashed in fixed-size chunks and
every chunk digest must match the recorded one.  ``cli`` operations are
checked against the hand-written ``expected`` blocks of the shipped corpus.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from wortfolge.analyze import Verdict
from wortfolge.clause import ClauseType, Tag
from wortfolge.linearize import InexpressibleTags, LinearizeError, NoVorfeld

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
#: The refusals ``linearize`` may give for a generated (clause, tags) pair.
EXPECTED_ERRORS = (InexpressibleTags, NoVorfeld)


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _is_permutation(order, ids):
    return len(order) == len(ids) and sorted(order) == sorted(ids)


def _theme_of(assignment):
    for cid, tag in assignment:
        if tag is Tag.THEME:
            return cid
    return None


def _frozen(tags):
    return tuple(sorted(tags.items()))


def _assignments(frozen_assignments):
    return [[cid, tag.value] for cid, tag in frozen_assignments]


def check_generate(item, result) -> list:
    """Invariants of one ``linearize`` outcome; returns its canonical form."""
    _, spec, tags = item
    if isinstance(result, LinearizeError):
        _require(isinstance(result, EXPECTED_ERRORS), f"unexpected refusal {type(result).__name__}: {result}")
        return ["error", type(result).__name__]
    ids = [c.id for c in spec.constituents]
    _require(_is_permutation(result.order, ids), f"order {result.order} is not a permutation of {ids}")
    theme = _theme_of(tags.items())
    if spec.clause_type is ClauseType.V2 and theme is not None:
        _require(result.vorfeld == theme, f"V2 theme {theme} not in the Vorfeld ({result.vorfeld})")
    return ["ok", list(result.order), list(result.rendered)]


def check_analyze(item, result) -> list:
    """Invariants of one ``analyze`` result; returns its canonical form."""
    _, kind, obs, tags = item
    explanations = result.explanations
    _require((result.verdict is Verdict.UNGRAMMATICAL) == (not explanations), "verdict disagrees with explanations")
    if obs.clause_type is ClauseType.V2:
        for assignment in explanations:
            theme = _theme_of(assignment)
            _require(theme in (None, obs.order[0]), f"V2 explanation puts theme {theme} outside the Vorfeld")
    if tags is not None:
        _require(result.verdict is not Verdict.UNGRAMMATICAL, f"{kind} order judged UNGRAMMATICAL")
        _require(_frozen(tags) in explanations, f"generating tags {tags} missing from the explanations")
    warning = result.warning
    return [
        result.verdict.value, result.theme, result.rheme, result.focus,
        list(result.focus_options), [_assignments(a) for a in explanations],
        result.markedness_cost,
        None if warning is None else [warning.verb_candidate, warning.vorfeld_candidate],
        list(result.detected_focus),
    ]


def check_enumerate(item, result) -> list:
    """Invariants of one ``enumerate_orders`` result; returns its canonical form."""
    _, spec = item
    ids = [c.id for c in spec.constituents]
    orders = [v.order for v in result]
    if spec.clause_type is ClauseType.VF or spec.subject() is not None:
        _require(orders, "no order enumerated, though the untagged clause has one")
    _require(len(set(orders)) == len(orders), "duplicate orders in the enumeration")
    for variant in result:
        _require(_is_permutation(variant.order, ids), f"order {variant.order} is not a permutation of {ids}")
        _require(variant.assignments, f"order {variant.order} has no assignment")
        if spec.clause_type is ClauseType.V2:
            for assignment in variant.assignments:
                theme = _theme_of(assignment)
                _require(theme in (None, variant.vorfeld), f"V2 theme {theme} not in the Vorfeld")
    return [
        [list(v.order), list(v.surface.rendered), [_assignments(a) for a in v.assignments]]
        for v in result
    ]


CHECKS = {"generate": check_generate, "analyze": check_analyze, "enumerate": check_enumerate}


def canonical_bytes(form) -> bytes:
    return json.dumps(form, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


class Golden:
    """Chunked comparison with the results recorded for the golden seed.

    ``feed`` takes each operation's canonical form in stream order; at each
    chunk boundary the running digest is compared with the recorded one.
    Results past the recorded coverage are checked by invariants only.  With
    ``digests=None`` the digests are recorded instead of compared.
    """

    def __init__(self, chunk: int, digests=None):
        self.chunk = chunk
        self.recording = digests is None
        self.digests = [] if digests is None else list(digests)
        self.position = 0
        self.checked = 0
        self.mismatched_chunks: list[int] = []
        self._hash = hashlib.sha256()

    @property
    def active(self) -> bool:
        return self.recording or self.position // self.chunk < len(self.digests)

    @property
    def mid_chunk(self) -> bool:
        return self.active and self.position % self.chunk != 0

    def feed(self, form):
        if not self.active:
            return
        self._hash.update(canonical_bytes(form))
        self._hash.update(b"\n")
        self.position += 1
        if self.position % self.chunk == 0:
            digest = self._hash.hexdigest()[:16]
            self._hash = hashlib.sha256()
            if self.recording:
                self.digests.append(digest)
                return
            index = self.position // self.chunk - 1
            if digest != self.digests[index]:
                self.mismatched_chunks.append(index)
            self.checked += self.chunk


def load_golden(workload: str, seed: int):
    """The recorded-results checker for this run, or None if there is none."""
    if seed != GOLDEN_SEED or workload not in CHECKS:
        return None
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload]
    return Golden(recorded["chunk"], recorded["digests"])


# -- cli ------------------------------------------------------------------

_ANALYSIS_FIELDS = (
    "verdict", "theme", "rheme", "focus", "markedness_cost",
    "focus_options", "detected_focus", "warning", "explanation_count",
)


def _check_fields(expected: dict, actual: dict, prefix: str, complete: bool):
    """Compare the expected analysis fields; with ``complete`` every expected
    field must be present, otherwise (a disambiguate reading, which prints
    fewer fields) absent ones are skipped."""
    for name in _ANALYSIS_FIELDS:
        if name in expected and (complete or name in actual):
            _require(name in actual, f"{prefix}.{name}: missing from the output")
            _require(actual[name] == expected[name], f"{prefix}.{name}: expected {expected[name]!r}, got {actual[name]!r}")
    if "has_empty_explanation" in expected and (complete or "explanations" in actual):
        _require("explanations" in actual, f"{prefix}.explanations: missing from the output")
        has_empty = {} in actual["explanations"]
        _require(has_empty == expected["has_empty_explanation"], f"{prefix}.has_empty_explanation: got {has_empty}")


def check_cli(op, proc) -> None:
    """Exit code, stderr and JSON fields of one CLI call against the corpus."""
    _require("Traceback" not in proc.stderr, f"{op.label}: traceback on stderr")
    if op.mode == "CORPUS":
        _require(proc.returncode == 0, f"corpus run exited {proc.returncode}")
        summary = proc.stdout.strip().splitlines()[-1]
        _require(summary.startswith(f"total {op.expected}, "), f"corpus run summary {summary!r}")
        return
    expected = op.expected
    analysis = expected.get("analysis", {})
    exit_code = 3 if op.mode == "ANALYZE" and analysis.get("verdict") == "UNGRAMMATICAL" else 0
    _require(proc.returncode == exit_code, f"{op.label}: exit {proc.returncode}, expected {exit_code}")
    report = json.loads(proc.stdout)
    if op.mode == "GENERATE":
        if "rendered" in expected:
            _require(report["rendered"] == expected["rendered"], f"{op.label}: rendered {report['rendered']}")
        if "vorfeld" in expected:
            _require(report["vorfeld"] == expected["vorfeld"], f"{op.label}: vorfeld {report['vorfeld']}")
        if op.printed:
            _require(report["rendered"] != op.printed, f"{op.label}: recorded mismatch vanished")
    elif op.mode == "ANALYZE":
        _check_fields(analysis, report, op.label, complete=True)
    else:
        readings = report["readings"]
        if "ranking" in expected:
            ranking = [r["label"] for r in readings]
            _require(ranking == expected["ranking"], f"{op.label}: ranking {ranking}")
        if "rejected" in expected:
            rejected = sorted(r["label"] for r in readings if not r["constraint_ok"])
            _require(rejected == sorted(expected["rejected"]), f"{op.label}: rejected {rejected}")
        if "excluded" in expected:
            excluded = sorted(e["label"] for e in report["excluded"])
            _require(excluded == sorted(expected["excluded"]), f"{op.label}: excluded {excluded}")
        by_label = {r["label"]: r for r in readings}
        for label, expected_reading in expected.get("readings", {}).items():
            _require(label in by_label, f"{op.label}: no reading {label}")
            _check_fields(expected_reading, by_label[label], f"{op.label}.{label}", complete=False)
