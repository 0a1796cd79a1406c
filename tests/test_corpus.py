"""The shipped corpus: structure, coverage, and full pass."""

import copy
import functools

import pytest

from wortfolge import Tag
from wortfolge.analyze import analyze
from wortfolge.corpus import load_corpus, run_case, run_corpus
from wortfolge.documents import Mode
from wortfolge.linearize import CompiledClause

EXPECTED_CASE_IDS = {
    "ex-1a", "ex-1b", "ex-1c", "ex-1d", "ex-1e",
    "ex-2a", "ex-2b", "ex-2c", "ex-2d",
    "ex-3a", "ex-3b", "ex-4a", "ex-4b",
    "ex-5a", "ex-5b", "ex-5c", "ex-5d",
    "ex-6a", "ex-6b",
    "ex-7", "ex-8", "ex-9", "ex-10", "ex-11",
    "ex-12a", "ex-12b",
    "ex-13", "ex-14", "ex-15",
}


def test_every_attested_example_appears_exactly_once(corpus):
    ids = [case.case_id for case in corpus]
    assert len(ids) == len(set(ids))
    assert set(ids) == EXPECTED_CASE_IDS


def test_mismatch_flags_are_exactly_the_two_known_spots(corpus):
    flagged = {case.case_id for case in corpus if case.expected_mismatch}
    assert flagged == {"ex-1e", "ex-7"}


def test_mismatch_cases_record_printed_and_derived_orders(corpus):
    for case in corpus:
        if case.expected_mismatch:
            assert case.printed
            assert case.printed_order
            assert list(case.printed) != case.expected["rendered"]


def test_full_corpus_passes(corpus, lex, table):
    summary = run_corpus(corpus, lex, table)
    failing = [r for r in summary.results if not r.passed]
    assert not failing, [(r.case_id, r.failures) for r in failing]
    assert summary.ok


def test_filtered_run(corpus, lex, table):
    summary = run_corpus(corpus, lex, table, filter_id="ex-5a")
    assert summary.counts["total"] == 1
    assert summary.ok


def test_detectors_are_sound_against_the_search(corpus, lex, table):
    # Wherever a direct focus-construction detector fires on a derivable
    # order, every explanation must focus the detected constituent.
    for case in corpus:
        if case.doc.mode is not Mode.ANALYZE:
            continue
        result = analyze(case.doc.clause, lex, table)
        if not result.explanations:
            continue
        for detected in result.detected_focus:
            assert all(
                dict(tags).get(detected) is Tag.FOCUS for tags in result.explanations
            ), (case.case_id, detected)


def test_every_corpus_clause_validates(corpus, lex, table):
    for case in corpus:
        clauses = [case.doc.clause] if case.doc.clause is not None else [c.clause for c in case.doc.candidates]
        for clause in clauses:
            CompiledClause(clause, {}, lex, table)  # raises on an invalid clause, lexicon defects included


def test_theme_is_the_vorfeld_element_except_under_focus_fronting(corpus, lex, table):
    for case in corpus:
        if case.doc.mode is not Mode.ANALYZE:
            continue
        obs = case.doc.clause
        if obs.clause_type.value != "V2":
            continue
        result = analyze(obs, lex, table)
        if case.case_id in ("ex-8", "ex-9"):
            assert result.theme is None, case.case_id
        else:
            assert result.theme == obs.constituents[0].id, case.case_id


def test_empty_corpus_is_ok(lex, table):
    summary = run_corpus(load_corpus('{"cases": []}'), lex, table)
    assert summary.ok
    assert summary.counts["total"] == 0


#: The fields of an analysis report, and the other fields the reports answer.
ANALYSIS_FIELDS = [
    "verdict", "theme", "rheme", "focus", "focus_options", "markedness_cost", "detected_focus",
    "warning", "has_empty_explanation", "explanation_count",
]
REPORT_FIELDS = ["rendered", "vorfeld", "ranking", "rejected", "excluded"]


def _corrupt(value):
    """A value of the same JSON type (a string for null or an object) that no report holds."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [*value, "corrupted"]
    return "corrupted"


def _analyses(expected):
    """The path of each analysis the case expects."""
    paths = [(name,) for name in ("analysis", "printed_analysis") if name in expected]
    return paths + [("readings", label) for label in expected.get("readings", {})]


def test_every_expected_field_has_its_corruption_test(corpus):
    for case in corpus:
        assert set(case.expected) <= {*REPORT_FIELDS, "analysis", "printed_analysis", "readings"}, case.case_id
        for path in _analyses(case.expected):
            analysis = functools.reduce(dict.__getitem__, path, case.expected)
            assert set(analysis) <= set(ANALYSIS_FIELDS), (case.case_id, path)


@pytest.mark.parametrize("field", ANALYSIS_FIELDS)
def test_each_corrupted_analysis_field_fails_its_case(corpus, lex, table, field):
    # In each analysis of each shipped case: the expected value corrupted, or
    # a corrupted one added where the case expects none.
    for case in corpus:
        for path in _analyses(case.expected):
            expected = copy.deepcopy(case.expected)
            analysis = functools.reduce(dict.__getitem__, path, expected)
            analysis[field] = _corrupt(analysis[field]) if field in analysis else "corrupted"
            failures = run_case(case._replace(expected=expected), lex, table).failures
            assert len(failures) == 1, (case.case_id, path, failures)
            assert failures[0].startswith(f"{'.'.join(path)}.{field}: expected "), (case.case_id, failures)


@pytest.mark.parametrize("field", [*REPORT_FIELDS, "printed"])
def test_each_corrupted_report_field_fails_its_case(corpus, lex, table, field):
    cases = [c for c in corpus if field in c.expected or field == "printed" and c.expected_mismatch]
    assert cases
    for case in cases:
        assert run_case(case, lex, table).passed
        if field == "printed":
            # The printed line made the derived one: the recorded discrepancy is gone.
            broken = case._replace(printed=tuple(case.expected["rendered"]))
            message = "expected a mismatch against the printed order, but they agree"
        else:
            broken = case._replace(expected={**case.expected, field: _corrupt(case.expected[field])})
            message = f"{field}: expected "
        failures = run_case(broken, lex, table).failures
        assert len(failures) == 1 and failures[0].startswith(message), (case.case_id, failures)
