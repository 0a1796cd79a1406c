"""Differential test: the key-check explanations against the search they replaced.

``reference_explain_order`` (in ``tests/oracle.py``) is the generate-and-test
search: it runs the reference ``realizations`` for every tag assignment and
keeps those whose realizations include the observed order.  The engine's
explanations, as ``analyze`` reports them, must be the same assignments in
the same order, or ``analyze`` must raise the same exception class with the
same message.  Under stress marks no assignment can carry, the engine
validates the clause where the reference did not (see
:func:`oracle.unusable_stress`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, Constituent, analyze

from .conftest import observed
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
    with pytest.raises(KeyError, match="bald#25"):
        search(observed(spec, ["ich", "den-mann", "gestern", "bald"]), lex)
