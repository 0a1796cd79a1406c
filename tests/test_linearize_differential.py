"""Differential test: ``linearize`` against the generator it replaced.

``reference_linearize`` (in ``tests/oracle.py``) is the generator that ran
before ``linearize`` moved onto the compiled clause: it rebuilds the tagged
clause, picks the Vorfeld with its own rule, keys the Mittelfeld one
constituent at a time with the oracle's own slot-table reader and stops at
the first refusal.  The engine must return an equal ``SurfaceOrder``, or
raise the same exception class with the same message.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, Constituent, Tag, linearize

from .oracle import outcome, reference_linearize
from .strategies import _LEX, clause_and_tags


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_linearize_matches_reference_generator(seed):
    spec, tags = clause_and_tags(seed)
    assert outcome(linearize, spec, tags, _LEX) == outcome(reference_linearize, spec, tags, _LEX)


#: The clause defect of the two unresolved keys the test below adds.
UNRESOLVED = (
    r"^invalid clause spec: bald: lexicon has no reading 'bald#25' \(lemma 'bald'\); "
    r"nie: lexicon has no reading 'nie#30' \(lemma 'nie'\)$"
)


def test_unresolved_lexicon_key_raises_key_error_for_every_assignment(ex5_clause, lex):
    # Keying one constituent at a time resolved a key only when a tagged
    # constituent reached it: untagged, the clause linearized; with an
    # unknown id it was an invalid assignment; with the later key tagged,
    # that key alone was named.  The compiled clause refuses every
    # unresolved key as a clause defect, whatever the assignment.
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    later = Constituent("nie", Category.M, ("nie",), hoberg_index=30, lexicon_key="nie#30")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray, later))
    for tags in ({}, {"nie": Tag.RHEME}, {"niemand": Tag.THEME}):
        with pytest.raises(ValueError, match=UNRESOLVED):
            linearize(spec, tags, lex)
