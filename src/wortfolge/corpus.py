"""Regression corpus: attested example clauses with their expected behaviour.

Each case wraps one clause document plus expectations (rendered order,
verdict, recovered tags, ranking).  Cases flagged ``expected_mismatch`` are
the spots where the shipped slot-table transcription and an attested printed
order disagree; for those the recorded discrepancy itself is asserted, and
they never fail the corpus run.
"""

from __future__ import annotations

import json
from importlib import resources

from .analyze import AnalysisResult, analyze
from .clause import _set, _Value
from .documents import (
    ClauseDocument,
    DocumentError,
    Mode,
    _parse_stress,
    analysis_report,
    parse_document,
    verify_document_keys,
)
from .disambiguate import rank_readings
from .lexicon import Lexicon
from .linearize import LinearizeError, linearize
from .slots import SlotTable, build_slot_table


class CorpusCase(_Value):
    """One corpus case.  ``expected`` is a dict, so a case is unhashable."""

    __slots__ = (
        "case_id", "doc", "expected", "expected_mismatch", "printed", "printed_order", "printed_stress",
        "note",
    )
    __hash__ = None

    def __init__(
        self,
        case_id: str,
        doc: ClauseDocument,
        expected: dict,
        expected_mismatch: bool = False,
        printed: tuple[str, ...] = (),
        printed_order: tuple[str, ...] = (),
        printed_stress: frozenset[str] = frozenset(),
        note: str = "",
    ):
        _set(self, "case_id", case_id)
        _set(self, "doc", doc)
        _set(self, "expected", expected)
        _set(self, "expected_mismatch", expected_mismatch)
        _set(self, "printed", printed)
        _set(self, "printed_order", printed_order)
        _set(self, "printed_stress", printed_stress)
        _set(self, "note", note)


class _Record(_Value):
    """A mutable, unhashable value type: field-wise ``==`` and repr only."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class CaseResult(_Record):
    __slots__ = ("case_id", "passed", "expected_mismatch", "failures")

    def __init__(self, case_id: str, passed: bool, expected_mismatch: bool, failures: list[str] | None = None):
        self.case_id = case_id
        self.passed = passed
        self.expected_mismatch = expected_mismatch
        self.failures = [] if failures is None else failures


class CorpusSummary(_Record):
    __slots__ = ("results",)

    def __init__(self, results: list[CaseResult]):
        self.results = results

    @property
    def ok(self) -> bool:
        """Pass iff no non-mismatch case failed."""
        return not any(not r.passed and not r.expected_mismatch for r in self.results)

    @property
    def counts(self) -> dict:
        passed = sum(1 for r in self.results if r.passed)
        return {
            "total": len(self.results),
            "passed": passed,
            "failed": len(self.results) - passed,
            "expected_mismatch": sum(1 for r in self.results if r.expected_mismatch),
        }


#: The JSON type of each optional case field and ``expected`` field (lists hold strings).
_CASE_FIELDS = dict(flags=dict, expected=dict, printed=list, printed_order=list, printed_stress=list)
_EXPECTED_FIELDS = dict(
    analysis=dict, printed_analysis=dict, readings=dict, rendered=list, ranking=list, rejected=list,
    excluded=list,
)
#: The ``expected`` fields each mode's check reads; any other is refused.
_EXPECTED_BY_MODE = {
    Mode.GENERATE: {"rendered", "vorfeld", "analysis", "printed_analysis"},
    Mode.ANALYZE: {"analysis"},
    Mode.DISAMBIGUATE: {"ranking", "rejected", "excluded", "readings"},
}


def _check_fields(raw: dict, kinds: dict, where: str):
    for key, kind in kinds.items():
        value = raw.get(key, kind())
        if kind is dict and not isinstance(value, dict):
            raise DocumentError(f"{where}.{key}: must be an object")
        if kind is list and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise DocumentError(f"{where}.{key}: must be a list of strings")


def load_corpus(text: str) -> tuple[CorpusCase, ...]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"corpus: invalid JSON ({err})") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("cases"), list):
        raise DocumentError("corpus: expected an object with a 'cases' list")
    cases = []
    seen = set()
    for i, raw_case in enumerate(raw["cases"]):
        where = f"cases[{i}]"
        if not isinstance(raw_case, dict):
            raise DocumentError(f"{where}: expected an object")
        case_id = raw_case.get("case_id")
        if not isinstance(case_id, str) or not case_id:
            raise DocumentError(f"{where}: missing case_id")
        if case_id in seen:
            raise DocumentError(f"{where}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        if "doc" not in raw_case:
            raise DocumentError(f"{where}: missing doc")
        doc = parse_document(raw_case["doc"])
        _check_fields(raw_case, _CASE_FIELDS, where)
        expected = raw_case.get("expected", {})
        _check_fields(expected, _EXPECTED_FIELDS, f"{where}.expected")
        readings = expected.get("readings", {})
        _check_fields(readings, dict.fromkeys(readings, dict), f"{where}.expected.readings")
        flags = raw_case.get("flags", {})
        for key, value in flags.items():
            if key != "expected_mismatch":
                raise DocumentError(f"{where}.flags.{key}: unknown flag")
            if not isinstance(value, bool):
                raise DocumentError(f"{where}.flags.{key}: must be true or false")
        for key in expected:
            if key not in _EXPECTED_BY_MODE[doc.mode]:
                raise DocumentError(f"{where}.expected.{key}: never checked in {doc.mode.value} mode")
        printed_order = raw_case.get("printed_order", [])
        printed_stress = raw_case.get("printed_stress", [])
        if doc.mode is Mode.GENERATE:
            # The printed line is analysed as a reordering of the clause.
            ids = [c.id for c in doc.clause.constituents]
            if not set(printed_order) <= set(ids):
                raise DocumentError(f"{where}.printed_order: names an unknown constituent")
            if printed_order and sorted(printed_order) != sorted(ids):
                raise DocumentError(f"{where}.printed_order: must name every constituent once")
            _parse_stress(printed_stress, ids, f"{where}.printed_stress")
        else:
            for field in ("printed", "printed_order", "printed_stress"):
                if field in raw_case:
                    raise DocumentError(f"{where}.{field}: only a GENERATE case has a printed line")
        cases.append(
            CorpusCase(
                case_id=case_id,
                doc=doc,
                expected=expected,
                expected_mismatch=flags.get("expected_mismatch", False),
                printed=tuple(raw_case.get("printed", [])),
                printed_order=tuple(printed_order),
                printed_stress=frozenset(printed_stress),
                note=raw_case.get("note", ""),
            )
        )
    return tuple(cases)


def load_default_corpus() -> tuple[CorpusCase, ...]:
    text = resources.files("wortfolge.data").joinpath("corpus.json").read_text("utf-8")
    return load_corpus(text)


def _check_analysis(expected: dict, result: AnalysisResult, failures: list, prefix: str = "analysis"):
    """Compare each expected field with the JSON form ``analyze`` prints."""
    actual = {**analysis_report(result), "has_empty_explanation": () in result.explanations}
    for name, value in expected.items():
        if name not in actual or actual[name] != value:
            failures.append(f"{prefix}.{name}: expected {value!r}, got {actual.get(name)!r}")


def run_case(case: CorpusCase, lex: Lexicon, table: SlotTable | None = None) -> CaseResult:
    # Lexicon problems are input errors, as in the CLI: the engine never sees them.
    failures = verify_document_keys(case.doc, lex)
    if not failures:
        try:
            _check_case(case, lex, table or build_slot_table(), failures)
        except (LinearizeError, ValueError) as err:
            failures.append(f"analysis failed: {err}")
    return CaseResult(case.case_id, not failures, case.expected_mismatch, failures)


def _check_case(case: CorpusCase, lex: Lexicon, table: SlotTable, failures: list[str]):
    doc = case.doc
    if doc.mode is Mode.GENERATE:
        try:
            surface = linearize(doc.clause, doc.tags or {}, lex, table)
        except (LinearizeError, ValueError) as err:
            failures.append(f"linearize failed: {err}")
            return
        if "rendered" in case.expected and list(surface.rendered) != case.expected["rendered"]:
            failures.append(
                f"rendered: expected {' '.join(case.expected['rendered'])!r}, got {surface.text!r}"
            )
        if "vorfeld" in case.expected and surface.vorfeld != case.expected["vorfeld"]:
            failures.append(f"vorfeld: expected {case.expected['vorfeld']!r}, got {surface.vorfeld!r}")
        if "analysis" in case.expected:
            obs = doc.clause.reordered(surface.order)
            _check_analysis(case.expected["analysis"], analyze(obs, lex, table), failures)
        if case.expected_mismatch:
            # The transcription and the attested line disagree here; assert the
            # discrepancy is exactly the recorded one.
            if not case.printed:
                failures.append("expected_mismatch case without printed tokens")
            elif list(surface.rendered) == list(case.printed):
                failures.append("expected a mismatch against the printed order, but they agree")
            if case.printed_order and "printed_analysis" in case.expected:
                obs = doc.clause.reordered(case.printed_order, case.printed_stress)
                _check_analysis(
                    case.expected["printed_analysis"],
                    analyze(obs, lex, table),
                    failures,
                    prefix="printed_analysis",
                )
    elif doc.mode is Mode.ANALYZE:
        _check_analysis(case.expected.get("analysis", {}), analyze(doc.clause, lex, table), failures)
    else:
        ranked = rank_readings(doc.candidates, lex, table)
        if "ranking" in case.expected:
            actual = [r.reading.label for r in ranked]
            if actual != case.expected["ranking"]:
                failures.append(f"ranking: expected {case.expected['ranking']}, got {actual}")
        if "rejected" in case.expected:
            actual = sorted(r.reading.label for r in ranked if not r.constraint_ok)
            if actual != sorted(case.expected["rejected"]):
                failures.append(f"rejected: expected {case.expected['rejected']}, got {actual}")
        if "excluded" in case.expected:
            actual = sorted(label for label, _ in doc.excluded)
            if actual != sorted(case.expected["excluded"]):
                failures.append(f"excluded: expected {case.expected['excluded']}, got {actual}")
        for label, expected_analysis in case.expected.get("readings", {}).items():
            matching = [r for r in ranked if r.reading.label == label]
            if not matching:
                failures.append(f"readings.{label}: no such candidate")
                continue
            _check_analysis(expected_analysis, matching[0].result, failures, prefix=f"readings.{label}")


def run_corpus(
    cases,
    lex: Lexicon,
    table: SlotTable | None = None,
    filter_id: str | None = None,
) -> CorpusSummary:
    table = table or build_slot_table()
    selected = [c for c in cases if filter_id is None or c.case_id == filter_id]
    return CorpusSummary(results=[run_case(c, lex, table) for c in selected])
