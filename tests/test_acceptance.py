"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a single ``[acceptance] ... PASS/FAIL``
line (run ``pytest -s tests/test_acceptance.py`` to see them as they run).
All checks are desk-scale and deterministic.
"""

import random
from itertools import permutations

from wortfolge import (
    Category,
    Tag,
    Verdict,
    analyze,
    enumerate_orders,
    linearize,
    rank_readings,
)
from wortfolge.corpus import run_case
from wortfolge.documents import Mode
from wortfolge.linearize import CompiledClause
from wortfolge.slots import KEY_TAGS

from .oracle import with_tag
from .strategies import random_clause, sample_valid_pairs


def _report(label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {label}: {status}")
    assert not failures, f"{label}: " + "; ".join(failures)


def _corpus_case(corpus, case_id):
    return next(case for case in corpus if case.case_id == case_id)


# 1 ---------------------------------------------------------------------------

PRINTED_ORDERS = {
    "ex-5a": "Ich habe den Mann gestern gesehen",
    "ex-5b": "Ich habe gestern den Mann gesehen",
    "ex-5c": "Gestern habe ich den Mann gesehen",
    "ex-5d": "weil gestern ICH den Mann gesehen habe",
    "ex-6a": "Ich habe deshalb gestern mit Wolf ferngesehen",
    "ex-6b": "Ich habe deshalb mit Wolf gestern ferngesehen",
}

MISMATCH_EXPECTATIONS = {
    "ex-7": {
        "printed": "Damals bin ich Frauen ohnehin oft überstürzt davongelaufen",
        "derived": "Damals bin ich ohnehin oft überstürzt Frauen davongelaufen",
    },
    "ex-1e": {
        "printed": "Morgen werde ihn vielleicht ICH besuchen",
        "derived": "Morgen werde ihn ICH vielleicht besuchen",
    },
}


def test_criterion_1_generation_regression(corpus, lex, table):
    failures = []
    for case_id, expected_text in PRINTED_ORDERS.items():
        case = _corpus_case(corpus, case_id)
        surface = linearize(case.doc.clause, case.doc.tags, lex, table)
        if surface.text != expected_text:
            failures.append(f"{case_id}: got {surface.text!r}")
    for case_id, record in MISMATCH_EXPECTATIONS.items():
        case = _corpus_case(corpus, case_id)
        if not case.expected_mismatch:
            failures.append(f"{case_id}: mismatch flag missing")
        surface = linearize(case.doc.clause, case.doc.tags, lex, table)
        if surface.text != record["derived"]:
            failures.append(f"{case_id}: derived {surface.text!r}")
        if " ".join(case.printed) != record["printed"]:
            failures.append(f"{case_id}: recorded printed order changed")
        if surface.text == record["printed"]:
            failures.append(f"{case_id}: expected a discrepancy, found none")
        result = run_case(case, lex, table)
        if not result.passed:
            failures.append(f"{case_id}: discrepancy report failed: {result.failures}")
    _report("criterion 1, generation regression", failures)


# 2 ---------------------------------------------------------------------------

def test_criterion_2_grammaticality_verdicts(corpus, lex, table):
    failures = []
    derivable = ["ex-1a", "ex-1b", "ex-1c", "ex-1d", "ex-2a", "ex-2b", "ex-3a", "ex-4a"]
    for case_id in derivable:
        case = _corpus_case(corpus, case_id)
        if not analyze(case.doc.clause, lex, table).explanations:
            failures.append(f"{case_id}: no explanation found")
    for case_id in ["ex-2c", "ex-2d"]:
        case = _corpus_case(corpus, case_id)
        if analyze(case.doc.clause, lex, table).explanations:
            failures.append(f"{case_id}: unexpectedly derivable")
    marked = {
        "ex-8": _corpus_case(corpus, "ex-8").doc.clause,
        "ex-9": _corpus_case(corpus, "ex-9").doc.clause,
    }
    # the derivable reading of the marked pronoun order
    ex1e = _corpus_case(corpus, "ex-1e")
    spec = ex1e.doc.clause
    marked["ex-1e reading"] = spec.reordered(("morgen", "ihn", "ich", "vielleicht"))
    for label, obs in marked.items():
        explanations = analyze(obs, lex, table).explanations
        if not explanations:
            failures.append(f"{label}: no explanation")
        elif not all(any(t is Tag.FOCUS for _, t in tags) for tags in explanations):
            failures.append(f"{label}: focus not obligatory")
    _report("criterion 2, grammaticality verdicts", failures)


# 3 ---------------------------------------------------------------------------

def test_criterion_3_information_structure_recovery(corpus, lex, table):
    failures = []

    def check(case_id, field, expected):
        case = _corpus_case(corpus, case_id)
        if case.doc.mode is Mode.ANALYZE:
            obs = case.doc.clause
        else:
            surface = linearize(case.doc.clause, case.doc.tags, lex, table)
            obs = case.doc.clause.reordered(surface.order)
        result = analyze(obs, lex, table)
        actual = getattr(result, field)
        if actual != expected:
            failures.append(f"{case_id}: {field} = {actual!r}, expected {expected!r}")
        return result

    check("ex-10", "theme", "damals")
    check("ex-11", "theme", "tina")
    check("ex-5b", "rheme", "den-mann")
    result_12 = check("ex-12a", "rheme", None)
    if result_12.warning is None:
        failures.append("ex-12a: missing stress-placement warning")
    else:
        candidates = {result_12.warning.verb_candidate, result_12.warning.vorfeld_candidate}
        if candidates != {"las", "er"}:
            failures.append(f"ex-12a: warning candidates {candidates}")
    check("ex-8", "focus", "nach-frankreich")
    check("ex-9", "focus", "einen-inder")
    _report("criterion 3, theme/rheme/focus recovery", failures)


# 4 ---------------------------------------------------------------------------

def test_criterion_4_disambiguation(corpus, lex, table):
    failures = []

    ex13 = _corpus_case(corpus, "ex-13")
    ranked = rank_readings(ex13.doc.candidates, lex, table)
    if [r.reading.label for r in ranked] != ["eher#26", "eher#5"]:
        failures.append(f"ex-13 ranking: {[r.reading.label for r in ranked]}")
    if ranked[0].constraint_ok is not True or ranked[1].constraint_ok is not False:
        failures.append("ex-13: constraint verdicts wrong")

    ex14 = _corpus_case(corpus, "ex-14")
    ranked = rank_readings(ex14.doc.candidates, lex, table)
    if [r.reading.label for r in ranked] != ["np-adjunct", "sentence-modifier"]:
        failures.append(f"ex-14 ranking: {[r.reading.label for r in ranked]}")

    ex15 = _corpus_case(corpus, "ex-15")
    if [label for label, _ in ex15.doc.excluded] != ["np-adjunct"]:
        failures.append(f"ex-15 exclusion: {ex15.doc.excluded}")
    (survivor,) = rank_readings(ex15.doc.candidates, lex, table)
    if survivor.result.verdict is not Verdict.GRAMMATICAL_MARKED:
        failures.append(f"ex-15 survivor verdict: {survivor.result.verdict}")
    _report("criterion 4, disambiguation", failures)


# 5 ---------------------------------------------------------------------------

def test_criterion_5_round_trip(lex, table):
    failures = []
    pairs = sample_valid_pairs(200, seed=42, max_constituents=6)
    for spec, tags in pairs:
        surface = linearize(spec, tags, lex, table)
        explanations = analyze(spec.reordered(surface.order), lex, table).explanations
        if tuple(sorted(tags.items())) not in explanations:
            failures.append(f"{tags} not recovered for order {surface.order}")
            if len(failures) >= 3:
                break
    _report("criterion 5, round-trip over 200 random clause/tag pairs", failures)


# 6 ---------------------------------------------------------------------------

# Frozen on the first oracle run; the brute-force below re-derives them.
EXPECTED_DISTINCT_ORDERS = {"ex-1": 12, "ex-2": 3}


def test_criterion_6_oracle_equivalence(ex1_clause, ex2_clause, lex, table):
    failures = []
    for label, spec in (("ex-1", ex1_clause), ("ex-2", ex2_clause)):
        generated = {v.order for v in enumerate_orders(spec, lex, table)}
        accepted = set()
        for perm in permutations(spec.constituents):
            obs = spec._replace(constituents=perm)
            if analyze(obs, lex, table).explanations:
                accepted.add(obs.order)
        if generated != accepted:
            failures.append(
                f"{label}: generated^accepted differ: {sorted(generated ^ accepted)}"
            )
        if len(generated) != EXPECTED_DISTINCT_ORDERS[label]:
            failures.append(
                f"{label}: {len(generated)} distinct orders, froze {EXPECTED_DISTINCT_ORDERS[label]}"
            )
    _report("criterion 6, enumeration equals brute-force acceptance", failures)


# 7 ---------------------------------------------------------------------------

def test_criterion_7_comparator_laws(lex, table):
    failures = []
    rng = random.Random(7)
    pool = []
    ordinal = 0
    while len(pool) < 400:
        spec = random_clause(rng, max_constituents=4)
        clause = CompiledClause(spec, {}, lex, table)
        for con, row in zip(spec.constituents, clause.keys):
            tag = None
            if rng.random() < 0.3:
                tag = rng.choice((Tag.THEME, Tag.RHEME, Tag.FOCUS))
            keys = row[KEY_TAGS.index(tag)]
            if keys is None:
                continue
            # The first key, with an ordinal numbered across the whole pool.
            pool.append((with_tag(con, tag), (*keys[0], ordinal)))
            ordinal += 1

    def order(x, y):  # -1/0/+1 by slot-key ordering
        return (x[1] > y[1]) - (x[1] < y[1])

    for _ in range(10_000):
        a, b, c_ = rng.sample(pool, 3)
        ab, ba = order(a, b), order(b, a)
        if ab != -ba:
            failures.append(f"antisymmetry broken for {a[1]} vs {b[1]}")
            break
        if order(a, b) <= 0 and order(b, c_) <= 0:
            if order(a, c_) > 0:
                failures.append("transitivity broken")
                break

    sample = rng.sample(pool, 50)
    ordered = sorted(sample, key=lambda kc: kc[1])
    if sorted(id(x) for x, _ in ordered) != sorted(id(x) for x, _ in sample):
        failures.append("sort is not a permutation")
    for left, right in zip(ordered, ordered[1:]):
        if order(left, right) > 0:
            failures.append("sorted output violates the ordering")
            break
    _report("criterion 7, comparator laws over 10000 random triples", failures)


# 8 ---------------------------------------------------------------------------

def test_criterion_8_subject_vorfeld_in_default_generation(lex, table):
    failures = []
    rng = random.Random(63)
    checked = 0
    while checked < 300:
        spec = random_clause(rng, max_constituents=6)
        subject = next((c for c in spec.constituents if c.category is Category.N), None)
        if spec.clause_type.value != "V2" or subject is None:
            continue
        try:
            surface = linearize(spec, {}, lex, table)
        except Exception:
            continue
        checked += 1
        if surface.vorfeld != subject.id:
            failures.append(f"subject {subject.id} not fronted in {surface.order}")
            break
    _report(
        "criterion 8, tag-free generation fronts the subject in 100% of subject-bearing V2 clauses",
        failures,
    )
