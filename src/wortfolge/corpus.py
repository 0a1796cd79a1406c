"""Regression corpus: attested example clauses with their expected behaviour.

Each case wraps one clause document plus expectations, which one function
compares with the reports the CLI prints for that document (built by
:mod:`wortfolge.documents`; :func:`_reports` maps the other fields).  Cases
flagged ``expected_mismatch`` are the spots where the shipped slot-table
transcription and an attested printed order disagree; only they record the
printed line, the recorded discrepancy itself is asserted, and they never
fail the corpus run.
"""

from __future__ import annotations

import json

from .analyze import AnalysisResult, analyze
from .clause import _set, _Value
from .documents import (
    ClauseDocument,
    DocumentError,
    Mode,
    SCHEMA_VERSION,
    _parse_stress,
    analysis_report,
    disambiguate_report,
    generate_report,
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


#: How a refusal names each JSON type a field may take; a list holds strings.
_KINDS = {dict: "an object", list: "a list of strings", str | None: "a string or null"}
#: The JSON type of each optional case field.
_CASE_FIELDS = dict(flags=dict, expected=dict, printed=list, printed_order=list, printed_stress=list)
#: Every field a case may have; any other is refused.
_CASE_KEYS = ("case_id", "doc", "note", *_CASE_FIELDS)
#: Each mode's ``expected`` fields and their JSON types; any other is refused.
_EXPECTED_FIELDS = {
    Mode.GENERATE: dict(rendered=list, vorfeld=str | None, analysis=dict, printed_analysis=dict),
    Mode.ANALYZE: dict(analysis=dict),
    Mode.DISAMBIGUATE: dict(ranking=list, rejected=list, excluded=list, readings=dict),
}
#: The case fields that record the attested printed line.
_PRINTED_FIELDS = ("printed", "printed_order", "printed_stress")


def _check_fields(raw: dict, kinds: dict, where: str):
    for key, kind in kinds.items():
        if key not in raw:
            continue
        value = raw[key]
        if not isinstance(value, kind) or kind is list and not all(isinstance(v, str) for v in value):
            raise DocumentError(f"{where}.{key}: must be {_KINDS[kind]}")


def load_corpus(text: str) -> tuple[CorpusCase, ...]:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise DocumentError(f"corpus: invalid JSON ({err})") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("cases"), list):
        raise DocumentError("corpus: expected an object with a 'cases' list")
    for key in raw:
        if key not in ("schema_version", "description", "cases"):
            raise DocumentError(f"corpus.{key}: unknown field")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise DocumentError(f"corpus: unsupported schema_version {raw['schema_version']!r}")
    cases = []
    seen = set()
    for i, raw_case in enumerate(raw["cases"]):
        where = f"cases[{i}]"
        if not isinstance(raw_case, dict):
            raise DocumentError(f"{where}: expected an object")
        for key in raw_case:
            if key not in _CASE_KEYS:
                raise DocumentError(f"{where}.{key}: unknown field")
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
        flags = raw_case.get("flags", {})
        for key, value in flags.items():
            if key != "expected_mismatch":
                raise DocumentError(f"{where}.flags.{key}: unknown flag")
            if not isinstance(value, bool):
                raise DocumentError(f"{where}.flags.{key}: must be true or false")
        expected = raw_case.get("expected", {})
        for key in expected:
            if key not in _EXPECTED_FIELDS[doc.mode]:
                raise DocumentError(f"{where}.expected.{key}: never checked in {doc.mode.value} mode")
        _check_fields(expected, _EXPECTED_FIELDS[doc.mode], f"{where}.expected")
        readings = expected.get("readings", {})
        _check_fields(readings, dict.fromkeys(readings, dict), f"{where}.expected.readings")
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
            for field in _PRINTED_FIELDS:
                if field in raw_case:
                    raise DocumentError(f"{where}.{field}: only a GENERATE case has a printed line")
        expected_mismatch = flags.get("expected_mismatch", False)
        if not expected_mismatch:
            unchecked = [field for field in _PRINTED_FIELDS if field in raw_case]
            if "printed_analysis" in expected:
                unchecked.append("expected.printed_analysis")
            if unchecked:
                raise DocumentError(f"{where}.{unchecked[0]}: only an expected_mismatch case has a printed line")
        elif not raw_case.get("printed"):
            raise DocumentError(f"{where}.printed: an expected_mismatch case must record its printed line")
        if "printed_analysis" in expected and not printed_order:
            raise DocumentError(f"{where}.expected.printed_analysis: needs a printed_order")
        cases.append(
            CorpusCase(
                case_id=case_id,
                doc=doc,
                expected=expected,
                expected_mismatch=expected_mismatch,
                printed=tuple(raw_case.get("printed", [])),
                printed_order=tuple(printed_order),
                printed_stress=frozenset(printed_stress),
                note=raw_case.get("note", ""),
            )
        )
    return tuple(cases)


#: Expected fields that hold expected fields of their own, as does each label
#: of ``readings``; every other value is compared whole, ``warning`` included.
_GROUPS = ("analysis", "printed_analysis", "readings")
#: Expected fields compared as sets: both sides sorted.
_SETS = ("rejected", "excluded")


def _analysis(result: AnalysisResult) -> dict:
    report = analysis_report(result)
    report["has_empty_explanation"] = {} in report["explanations"]
    return report


def _reports(case: CorpusCase, lex: Lexicon, table: SlotTable) -> dict:
    """The reports the CLI prints for the case, keyed as ``expected`` is.

    A GENERATE ``analysis`` is that of the generated order, ``printed_analysis``
    that of ``printed_order`` under ``printed_stress``.  ``ranking`` is the
    reading labels in rank order, ``rejected`` those with ``constraint_ok``
    false, ``excluded`` the excluded labels, and ``readings.<label>`` that
    candidate's full analysis.  Every analysis adds ``has_empty_explanation``.
    """
    doc = case.doc
    if doc.mode is Mode.ANALYZE:
        return {"analysis": _analysis(analyze(doc.clause, lex, table))}
    if doc.mode is Mode.DISAMBIGUATE:
        ranked = rank_readings(doc.candidates, lex, table)
        report = disambiguate_report(ranked, doc.excluded)
        return {
            "ranking": [r["label"] for r in report["readings"]],
            "rejected": sorted(r["label"] for r in report["readings"] if not r["constraint_ok"]),
            "excluded": sorted(e["label"] for e in report["excluded"]),
            "readings": {r.reading.label: _analysis(r.result) for r in ranked},
        }
    surface = linearize(doc.clause, doc.tags or {}, lex, table)
    reports = generate_report(surface)
    reports["analysis"] = _analysis(analyze(doc.clause.reordered(surface.order), lex, table))
    if case.printed_order:
        printed = doc.clause.reordered(case.printed_order, case.printed_stress)
        reports["printed_analysis"] = _analysis(analyze(printed, lex, table))
    return reports


def _compare(expected: dict, actual: dict, failures: list[str], prefix: str = ""):
    """One failure per expected value that differs from the same field of ``actual``."""
    for name, value in expected.items():
        where = prefix + name
        if name in actual and (name in _GROUPS or prefix == "readings."):
            _compare(value, actual[name], failures, where + ".")
        elif name not in actual or actual[name] != (sorted(value) if name in _SETS else value):
            failures.append(f"{where}: expected {value!r}, got {actual.get(name)!r}")


def run_case(case: CorpusCase, lex: Lexicon, table: SlotTable | None = None) -> CaseResult:
    # Lexicon problems are input errors, as in the CLI: the engine never sees them.
    failures = verify_document_keys(case.doc, lex)
    if not failures:
        try:
            _check_case(case, lex, table or build_slot_table(), failures)
        except (LinearizeError, ValueError) as err:
            failures.append(f"{case.doc.mode.value.lower()} failed: {err}")
    return CaseResult(case.case_id, not failures, case.expected_mismatch, failures)


def _check_case(case: CorpusCase, lex: Lexicon, table: SlotTable, failures: list[str]):
    actual = _reports(case, lex, table)
    _compare(case.expected, actual, failures)
    # The recorded discrepancy: the derived order is not the printed one.
    if case.expected_mismatch and actual["rendered"] == list(case.printed):
        failures.append("expected a mismatch against the printed order, but they agree")


def run_corpus(
    cases,
    lex: Lexicon,
    table: SlotTable | None = None,
    filter_id: str | None = None,
) -> CorpusSummary:
    table = table or build_slot_table()
    selected = [c for c in cases if filter_id is None or c.case_id == filter_id]
    return CorpusSummary(results=[run_case(c, lex, table) for c in selected])
