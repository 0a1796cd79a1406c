"""Differential test: the analyzer's walk against the search it replaced.

``reference_explain_order`` (in ``tests/oracle.py``) is the generate-and-test
search: it runs the reference ``realizations`` for every tag assignment and
keeps those whose realizations include the observed order.  The engine's
explanations, as ``analyze`` reports them, must be the same assignments in
the same order, or ``analyze`` must raise the same exception class with the
same message.  Under stress marks no assignment can carry, the engine
validates the clause where the reference did not (see
:func:`oracle.unusable_stress`).  Random observations reach the walk's
pruning cases by chance; three small clauses, one with tied keys, are
checked in every order under every single stress mark.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, ClauseSpec, ClauseType, Constituent, VerbComplex, analyze

from .conftest import c, modifier
from .oracle import outcome, reference_explain_order, unusable_stress
from .strategies import _LEX, observation


def explain_order(obs, lex):
    """The engine's explanations of the observed order, as assignments."""
    return tuple(dict(tags) for tags in analyze(obs, lex).explanations)


@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_explain_order_matches_reference_search(seed):
    obs = observation(seed)
    got = outcome(explain_order, obs, _LEX)
    unstressed = outcome(explain_order, obs._replace(stress=frozenset()), _LEX)
    if unusable_stress(obs) and unstressed[0] == "raised":
        assert got == unstressed
    else:
        assert got == outcome(reference_explain_order, obs, _LEX)


@pytest.mark.parametrize("search", [explain_order, reference_explain_order])
def test_unresolved_lexicon_key_raises_key_error(ex5_clause, lex, search):
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray,))
    with pytest.raises(ValueError, match=r"^invalid clause spec: bald: lexicon has no reading 'bald#25' \(lemma"):
        search(spec.reordered(["ich", "den-mann", "gestern", "bald"]), lex)


#: A pronoun subject, a definite dative, a Vorfeld-capable but non-focusable
#: modifier and a plain one: every way the walk prunes a branch.
_WALKED = (
    c("er", "N", "er", pron=True),
    c("dem-mann", "D", "dem Mann", definite="+", animate="+"),
    modifier("dennoch", "dennoch", 20),
    modifier("gestern", "gestern", 26),
)
#: A dative pronoun has an early and a late FOCUS key: the walk's greedy choice.
_TWO_FOCUS_KEYS = (c("er", "N", "er", pron=True), c("ihm", "D", "ihm", pron=True), modifier("gestern", "gestern", 26))
#: Two modifiers of one Hoberg class tie on every key they have: the walk
#: takes a key equal to its predecessor's as in order.
_TIED = (
    c("er", "N", "er", pron=True),
    c("dem-mann", "D", "dem Mann", definite="+", animate="+"),
    modifier("gestern", "gestern", 26),
    modifier("damals", "damals", 26),
)


@pytest.mark.parametrize(
    "constituents, clause_type, grammatical",
    [
        (_WALKED, ClauseType.V2, 27),
        (_WALKED, ClauseType.VF, 21),
        (_TWO_FOCUS_KEYS, ClauseType.V2, 15),
        (_TWO_FOCUS_KEYS, ClauseType.VF, 10),
        (_TIED, ClauseType.V2, 40),
        (_TIED, ClauseType.VF, 28),
    ],
)
def test_every_order_and_stress_mark_of_one_clause_matches_reference_search(
    constituents, clause_type, grammatical, lex
):
    complementizer = "weil" if clause_type is ClauseType.VF else None
    spec = ClauseSpec(clause_type, VerbComplex(("hat",), ("geholfen",)), constituents, complementizer)
    ids = [x.id for x in constituents]
    explained = 0
    for order in itertools.permutations(ids):
        for stress in [(), *((cid,) for cid in ids)]:
            obs = spec.reordered(order, stress)
            got = explain_order(obs, lex)
            assert got == reference_explain_order(obs, lex), (order, stress)
            explained += bool(got)
    # The count keeps the walk's successes in view (240 cases for the four constituents).
    assert explained == grammatical
