import random
import re

import pytest

from wortfolge import ClauseSpec, ClauseType, CooccurrenceViolation, Tag, VerbComplex, analyze, linearize
from wortfolge.lexicon import load_default_lexicon
from wortfolge.linearize import CompiledClause
from wortfolge.slots import build_slot_table

from .conftest import c

_LEX = load_default_lexicon()

def _clause_violations(spec):
    """The violations compiling the clause under no assignment reports: its
    slash-group conflicts if it has any, else its spec defects; none if it
    compiles."""
    try:
        CompiledClause(spec, {}, _LEX, build_slot_table())
    except CooccurrenceViolation as err:
        return list(err.violations)
    except ValueError as err:
        return str(err).removeprefix("invalid clause spec: ").split("; ")
    return []


def test_ex5_clause_is_valid(ex5_clause):
    assert _clause_violations(ex5_clause) == []


def test_duplicate_nominative_reported(ex5_clause):
    doubled = ex5_clause._replace(
        constituents=ex5_clause.constituents
        + (c("der-hund", "N", "der Hund", definite="+", animate="+"),),
    )
    assert "nominative alternatives cannot cooccur: ich, der-hund" in _clause_violations(doubled)


def test_double_rheme_tag_reported(ex5_clause, lex):
    with pytest.raises(ValueError, match="^invalid assignment: rheme cardinality: den-mann, gestern$"):
        linearize(ex5_clause, {"den-mann": Tag.RHEME, "gestern": Tag.RHEME}, lex)


def test_exclusive_adverbial_complements():
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("ist",)),
        (c("hier", "SIT", "hier"), c("nach-rom", "DIR", "nach Rom")),
    )
    assert "SIT/DIR/EXP cannot cooccur: hier, nach-rom" in _clause_violations(spec)


def test_complementizer_requires_verb_final(ex5_clause):
    bad = ex5_clause._replace(complementizer="weil")
    assert any("complementizer" in v for v in _clause_violations(bad))


@pytest.mark.parametrize("complementizer", ["", "  ", 5])
def test_blank_complementizer_reported(ex5_vf_clause, lex, complementizer):
    # Rendered, a blank complementizer would open the clause with spaces and
    # an empty one would vanish.
    bad = ex5_vf_clause._replace(complementizer=complementizer)
    assert _clause_violations(bad) == ["blank or non-string complementizer"]
    with pytest.raises(ValueError, match="^invalid clause spec: blank or non-string complementizer$"):
        linearize(bad, {}, lex)


def test_by_id_raises_key_error_for_an_unknown_id(ex5_clause):
    with pytest.raises(KeyError, match="niemand"):
        ex5_clause.by_id("niemand")
    with pytest.raises(KeyError, match="niemand"):
        ex5_clause.reordered(("niemand",))


def test_hoberg_index_iff_modifier(ex5_clause):
    no_index = ex5_clause._replace(
        constituents=tuple(
            con._replace(hoberg_index=None) if con.id == "gestern" else con
            for con in ex5_clause.constituents
        ),
    )
    assert any("without Hoberg index" in v for v in _clause_violations(no_index))

    on_noun = ex5_clause._replace(
        constituents=tuple(
            con._replace(hoberg_index=3) if con.id == "den-mann" else con
            for con in ex5_clause.constituents
        ),
    )
    assert any("non-modifier" in v for v in _clause_violations(on_noun))


@pytest.mark.parametrize("index", ["26", 26.0, True])
def test_non_integer_hoberg_index_reported(ex5_clause, lex, index):
    # Documents refuse such an index first; through the API it used to raise TypeError.
    bad = ex5_clause._replace(
        constituents=tuple(
            con._replace(hoberg_index=index) if con.id == "gestern" else con
            for con in ex5_clause.constituents
        ),
    )
    message = f"gestern: Hoberg index {index!r} is not an integer"
    assert _clause_violations(bad) == [message]
    for call in (linearize, lambda clause, _, lex: analyze(clause, lex)):
        with pytest.raises(ValueError, match=f"^invalid clause spec: {re.escape(message)}$"):
            call(bad, {}, lex)


def test_empty_surface_reported(ex5_clause):
    bad = ex5_clause._replace(
        constituents=tuple(
            con._replace(surface=()) if con.id == "ich" else con
            for con in ex5_clause.constituents
        ),
    )
    assert any("empty surface" in v for v in _clause_violations(bad))


@pytest.mark.parametrize("token", ["", " ", "\t"])
def test_blank_tokens_reported(ex5_clause, token):
    blank_surface = ex5_clause._replace(
        constituents=tuple(
            con._replace(surface=("den", token)) if con.id == "den-mann" else con
            for con in ex5_clause.constituents
        ),
    )
    assert any("den-mann: blank or non-string surface token" in v for v in _clause_violations(blank_surface))
    blank_verb = ex5_clause._replace(verb=VerbComplex(("habe",), (token,)))
    assert "verb complex has a blank or non-string token" in _clause_violations(blank_verb)


def test_unresolved_features_on_full_noun_phrases():
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("sieht",)),
        (c("etwas", "A", "etwas"),),  # definiteness/animacy left at n.a.
    )
    assert any("resolved definiteness" in v for v in _clause_violations(spec))


def test_validation_is_order_insensitive(ex7_clause):
    rng = random.Random(7)
    base = _clause_violations(ex7_clause)
    for _ in range(10):
        shuffled = list(ex7_clause.constituents)
        rng.shuffle(shuffled)
        assert _clause_violations(ex7_clause._replace(constituents=tuple(shuffled))) == base


@pytest.mark.parametrize(
    "fixture",
    ["ex1_clause", "ex2_clause", "ex5_clause", "ex5_vf_clause", "ex6_clause",
     "ex7_clause", "ex8_clause", "ex9_clause", "ex12_clause"],
)
def test_every_example_clause_validates(fixture, request):
    spec = request.getfixturevalue(fixture)
    assert _clause_violations(spec) == []
