import pytest

from wortfolge import (
    CandidateReading,
    ClauseSpec,
    ClauseType,
    NEGATED,
    Verdict,
    VerbComplex,
    rank_readings,
)
from wortfolge.documents import parse_candidates

from .conftest import c, modifier


def _eher_reading(index, context=(NEGATED,)):
    clause = ClauseSpec(
        clause_type=ClauseType.V2,
        verb=VerbComplex(("sollte",), ("kommen",)),
        constituents=(
            c("er", "N", "er", pron=True),
            modifier("nicht", "nicht", 41),
            c("eher", "M", "eher", hoberg=index, key=f"eher#{index}"),
        ),
    )
    return CandidateReading(label=f"eher#{index}", clause=clause, constraint_context=frozenset(context))


def _pp_reading(label, constituents, stress=()):
    clause = ClauseSpec(
        clause_type=ClauseType.V2,
        verb=VerbComplex(("hat",), ("gesehen",)),
        constituents=constituents,
        stress=frozenset(stress),
    )
    return CandidateReading(label=label, clause=clause)


# --- constraints -------------------------------------------------------------

def _constraint_ok(reading, lex):
    (ranked,) = rank_readings([reading], lex)
    return ranked.constraint_ok


def test_negated_preference_reading_rejected(lex):
    assert _constraint_ok(_eher_reading(5), lex) is False


def test_temporal_reading_survives_negation(lex):
    assert _constraint_ok(_eher_reading(26), lex) is True


def test_preference_reading_fine_without_negation(lex):
    assert _constraint_ok(_eher_reading(5, context=()), lex) is True


def test_unresolved_lexicon_key_names_the_lemma(lex):
    broken = CandidateReading(
        label="broken",
        clause=ClauseSpec(
            clause_type=ClauseType.V2,
            verb=VerbComplex(("hat",)),
            constituents=(c("x", "M", "plotzlich", hoberg=30, key="plotzlich#30"),),
        ),
    )
    with pytest.raises(ValueError, match=r"^invalid clause spec: x: lexicon has no reading 'plotzlich#30' \(lemma"):
        rank_readings([broken], lex)


# --- ranking ------------------------------------------------------------------

def test_homonym_ranking(lex):
    ranked = rank_readings([_eher_reading(26), _eher_reading(5)], lex)
    assert [r.reading.label for r in ranked] == ["eher#26", "eher#5"]
    assert ranked[0].constraint_ok and not ranked[1].constraint_ok
    assert ranked[0].result.verdict is Verdict.GRAMMATICAL_UNMARKED


def test_homonym_ranking_is_input_order_independent(lex):
    ranked = rank_readings([_eher_reading(5), _eher_reading(26)], lex)
    assert [r.reading.label for r in ranked] == ["eher#26", "eher#5"]


def test_pp_attachment_prefers_the_focus_free_reading(lex):
    adjunct = _pp_reading(
        "np-adjunct",
        (
            modifier("deshalb", "deshalb", 22),
            c("der-mann-vdb", "N", "der Mann vor der Bank", definite="+", animate="+"),
            c("ihn", "A", "ihn", pron=True),
        ),
    )
    sentence_mod = _pp_reading(
        "sentence-modifier",
        (
            modifier("deshalb", "deshalb", 22),
            c("der-mann", "N", "der Mann", definite="+", animate="+"),
            c("vor-der-bank", "M", "vor der Bank", hoberg=31, key="vor + NP#31"),
            c("ihn", "A", "ihn", pron=True),
        ),
    )
    ranked = rank_readings([sentence_mod, adjunct], lex)
    assert [r.reading.label for r in ranked] == ["np-adjunct", "sentence-modifier"]
    assert ranked[0].result.markedness_cost == 0
    assert ranked[1].result.markedness_cost >= 1
    assert ranked[1].result.focus == "ihn"


def test_pronominal_head_blocks_the_adjunct_reading(lex):
    observed = {
        "clause_type": "V2",
        "verb": {"finite": ["hat"], "nonfinite": ["gesehen"]},
        "constituents": [{"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}}],
    }
    raw = [
        {"label": label, "np_attachment": {"head_is_pronoun": pronoun}, "observed": observed}
        for label, pronoun in (("pronoun-head", True), ("noun-head", False))
    ]
    candidates, excluded = parse_candidates(raw)
    assert [cand.label for cand in candidates] == ["noun-head"]
    assert excluded == (("pronoun-head", "pronominal heads take no NP adjunct"),)
    survivor = _pp_reading(
        "sentence-modifier",
        (
            modifier("deshalb", "deshalb", 22),
            c("er", "N", "er", pron=True),
            c("vor-der-bank", "M", "vor der Bank", hoberg=31, key="vor + NP#31"),
            c("ihn", "A", "ihn", pron=True),
        ),
        stress=("ihn",),
    )
    (ranked,) = rank_readings([survivor], lex)
    assert ranked.rank == 1
    assert ranked.result.verdict is Verdict.GRAMMATICAL_MARKED
    assert ranked.result.focus == "ihn"


def test_singleton_candidate_ranks_first(lex):
    (only,) = rank_readings([_eher_reading(26)], lex)
    assert only.rank == 1


def test_ranking_is_a_stable_permutation(lex):
    candidates = [_eher_reading(26), _eher_reading(26), _eher_reading(5)]
    ranked = rank_readings(candidates, lex)
    assert [r.reading for r in ranked[:2]] == candidates[:2]  # tie keeps input order
    assert sorted(id(r.reading) for r in ranked) == sorted(id(cand) for cand in candidates)


def test_violating_candidate_does_not_reorder_survivors(lex):
    survivors = [_eher_reading(26), _eher_reading(26)]
    without = [r.reading for r in rank_readings(list(survivors), lex) if r.constraint_ok]
    with_violator = [
        r.reading
        for r in rank_readings([survivors[0], _eher_reading(5), survivors[1]], lex)
        if r.constraint_ok
    ]
    assert without == with_violator


def test_empty_candidate_list_rejected(lex):
    with pytest.raises(ValueError):
        rank_readings([], lex)
