"""Differential test: ``realizations`` and ``enumerate_orders`` against the search they replaced.

``reference_realizations`` and ``reference_enumerate_orders`` (in
``tests/oracle.py``) are the generate-and-test implementations that ran
before both moved onto the compiled clause: every assignment rebuilds the
tagged clause, validates it again and keys every constituent again, with the
oracle's own slot-table reader.  The engine must return equal results, or
raise the same exception class with the same message.
"""

from __future__ import annotations

import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import (
    Category,
    ClauseType,
    Constituent,
    Tag,
    analyze,
    enumerate_orders,
    load_slot_table,
)
from wortfolge.linearize import MAX_SEARCH_CONSTITUENTS, CompiledClause, realizations

from .oracle import (
    iter_assignments,
    outcome,
    reference_analyze,
    reference_enumerate_orders,
    reference_realizations,
    unusable_stress,
)
from .strategies import _LEX, clause_and_tags, observation, random_clause


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_realization_matches_reference_search(seed):
    spec, tags = clause_and_tags(seed)
    assert outcome(realizations, spec, tags, _LEX) == outcome(reference_realizations, spec, tags, _LEX)
    assert outcome(enumerate_orders, spec, _LEX) == outcome(reference_enumerate_orders, spec, _LEX)


def _clause_at_cap(seed):
    """A valid clause of 9 or 10 constituents, V2 or VF, both set by the seed."""
    size = MAX_SEARCH_CONSTITUENTS - seed % 2
    clause_type = (ClauseType.V2, ClauseType.VF)[seed // 2 % 2]
    rng = random.Random(seed)
    while True:
        spec = random_clause(rng, size)
        if len(spec.constituents) == size and spec.clause_type is clause_type:
            return spec


@pytest.mark.parametrize("seed", range(10))
def test_realization_matches_reference_search_at_the_cap(seed):
    # The search skips carriers that can license nothing under their tag;
    # every assignment, skipped or not, must realize what the reference does.
    spec = _clause_at_cap(seed)
    ids = [c.id for c in spec.constituents]
    carriers = (None, *range(len(ids)))
    for theme, rheme, focus in iter_assignments(carriers, carriers, carriers):
        tagged = ((theme, Tag.THEME), (rheme, Tag.RHEME), (focus, Tag.FOCUS))
        tags = {ids[i]: tag for i, tag in tagged if i is not None}
        assert realizations(spec, tags, _LEX) == reference_realizations(spec, tags, _LEX), tags
    assert enumerate_orders(spec, _LEX) == reference_enumerate_orders(spec, _LEX)


#: The clause defect of the two unresolved keys the test below adds.
UNRESOLVED = (
    r"^invalid clause spec: bald: lexicon has no reading 'bald#25' \(lemma 'bald'\); "
    r"nie: lexicon has no reading 'nie#30' \(lemma 'nie'\)$"
)


def test_unresolved_lexicon_key_raises_key_error_for_every_assignment(ex5_clause, lex):
    # Keying each assignment separately resolved a key only when an
    # assignment reached it, so the untagged and the malformed assignments
    # returned without raising.  The compiled clause refuses every
    # unresolved key as a clause defect, whatever the assignment.
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    later = Constituent("nie", Category.M, ("nie",), hoberg_index=30, lexicon_key="nie#30")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray, later))
    for tags in ({}, {"bald": Tag.FOCUS}, {"niemand": Tag.THEME}):
        with pytest.raises(ValueError, match=UNRESOLVED):
            realizations(spec, tags, lex)
    with pytest.raises(ValueError, match=UNRESOLVED):
        enumerate_orders(spec, lex)


def _early_modifier_focus_table():
    """The shipped table with one more pattern: a focused modifier also fits the early FOCUS slot.

    On the shipped table no modifier has more than one FOCUS key; here most
    have two, the early and the general slot.  A table has exactly two FOCUS
    slots (the loader refuses any other count), so two keys are the most a
    focus can hold.
    """
    text = resources.files("wortfolge.data").joinpath("slot_table.tsv").read_text("utf-8")
    last_early = "2\t5\t2\tD\tpron\tFOCUS\t-\t-\n"
    assert last_early in text
    return load_slot_table(text.replace(last_early, last_early + "2\t5\t1\tM\t-\tFOCUS\t1-44\t-\n"))


def test_two_focus_keys_on_a_custom_table_match_the_reference():
    table = _early_modifier_focus_table()
    two_keyed = moved = 0
    for seed in range(60):
        spec, tags = clause_and_tags(seed)
        assert outcome(realizations, spec, tags, _LEX, table) == outcome(
            reference_realizations, spec, tags, _LEX, table
        )
        orders = outcome(enumerate_orders, spec, _LEX, table)
        assert orders == outcome(reference_enumerate_orders, spec, _LEX, table)
        if orders[0] == "returned":
            clause = CompiledClause(spec, {}, _LEX, table)
            two_keyed += sum(
                1 for c, row in zip(spec.constituents, clause.keys) if c.category is Category.M and len(row[3] or ()) == 2
            )
            moved += orders[1] != enumerate_orders(spec, _LEX)
        obs = observation(seed)
        got = outcome(analyze, obs, _LEX, table)
        if not (unusable_stress(obs) and got[0] == "raised"):
            assert got == outcome(reference_analyze, obs, _LEX, table)
    # The pool reaches the path: modifiers with two FOCUS keys, and orders the shipped table lacks.
    assert two_keyed and moved
