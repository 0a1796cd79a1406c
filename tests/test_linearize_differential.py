"""Differential test: ``linearize`` against the generator it replaced.

``reference_linearize`` is the generator that ran before ``linearize`` moved
onto the compiled clause: it rebuilds the tagged clause, picks the Vorfeld
with its own rule, keys the Mittelfeld one constituent at a time and stops at
the first refusal.  The engine must return an equal ``SurfaceOrder``, or
raise the same exception class with the same message.  The reference uses
only the engine's slot keys and the frozen validators and helpers of
``test_enumerate_differential``, never the code it checks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, ClauseType, Constituent, Tag, linearize
from wortfolge.linearize import InexpressibleTags
from wortfolge.slots import NoSlotError, build_slot_table, sort_key

from .test_enumerate_differential import (
    _clause_and_tags,
    _outcome,
    _reference_apply_tags,
    _reference_check_clause,
    _reference_check_theme_admissible,
    _reference_surface,
    _reference_tagged,
    reference_check_assignment,
    reference_select_vorfeld,
)


def _reference_sorted_mittelfeld(tagged_spec, exclude_id, lex, table):
    keyed = []
    for ordinal, c in enumerate(tagged_spec.constituents):
        if c.id == exclude_id:
            continue
        try:
            key = sort_key(table, c, ordinal, tag=c.tag, lex=lex)
        except NoSlotError as err:
            raise InexpressibleTags(str(err)) from err
        keyed.append((key, c))
    keyed.sort(key=lambda kc: kc[0])
    return keyed


def reference_linearize(spec, tags, lex, table=None):
    """The deterministic order: Vorfeld pick, then the rest sorted by first slot key."""
    table = table or build_slot_table()
    tagged_spec = _reference_apply_tags(spec, tags)
    _reference_check_clause(spec, tagged_spec, table)
    assignment_violations = reference_check_assignment(spec, tags)
    if assignment_violations:
        raise ValueError("invalid assignment: " + "; ".join(assignment_violations))
    _reference_check_theme_admissible(tagged_spec, table)

    if spec.clause_type is ClauseType.V2:
        vorfeld_id = reference_select_vorfeld(spec, tags, lex, table)
        theme = _reference_tagged(tagged_spec, Tag.THEME)
        if theme is not None and theme.id != vorfeld_id:
            raise InexpressibleTags(
                f"theme {theme.id} cannot occupy the Vorfeld and V2 clauses "
                "admit no Mittelfeld theme"
            )
        keyed = _reference_sorted_mittelfeld(tagged_spec, vorfeld_id, lex, table)
        return _reference_surface(tagged_spec, keyed, tagged_spec.by_id(vorfeld_id))

    keyed = _reference_sorted_mittelfeld(tagged_spec, None, lex, table)
    return _reference_surface(tagged_spec, keyed, None)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_linearize_matches_reference_generator(seed):
    spec, tags = _clause_and_tags(seed)
    assert _outcome(linearize, spec, tags) == _outcome(reference_linearize, spec, tags)


def test_unresolved_lexicon_key_raises_key_error_for_every_assignment(ex5_clause, lex):
    # Keying one constituent at a time resolves a key only when a tagged
    # constituent reaches it: untagged, the clause linearized; with an
    # unknown id it was an invalid assignment; with the later key tagged,
    # that key was named.
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    later = Constituent("nie", Category.M, ("nie",), hoberg_index=30, lexicon_key="nie#30")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray, later))
    for tags in ({}, {"nie": Tag.RHEME}, {"niemand": Tag.THEME}):
        with pytest.raises(KeyError, match="bald#25"):
            linearize(spec, tags, lex)
