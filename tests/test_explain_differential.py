"""Differential test: the key-check ``explain_order`` against the search it replaced.

``reference_explain_order`` is the generate-and-test search: it runs the
reference ``realizations`` for every tag assignment and keeps those whose
realizations include the observed order.  The engine's ``explain_order``
must return the same tuple, or raise the same exception class with the same
message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, Constituent, Tag, explain_order
from wortfolge.analyze import ObservedClause, spec_of
from wortfolge.linearize import MAX_SEARCH_CONSTITUENTS, LinearizeError, linearize
from wortfolge.slots import build_slot_table

from .conftest import observed
from .strategies import _LEX, broken_clause, random_assignment, random_clause
from .test_enumerate_differential import reference_assignments, reference_realizations


def reference_explain_order(obs, lex, table=None):
    """Every tag assignment whose realizations include the observed order."""
    if len(obs.constituents) > MAX_SEARCH_CONSTITUENTS:
        raise ValueError(
            f"clause has {len(obs.constituents)} constituents; "
            f"exhaustive search is capped at {MAX_SEARCH_CONSTITUENTS}"
        )
    table = table or build_slot_table()
    spec = spec_of(obs)
    target = obs.order
    out = []
    for tags in reference_assignments(spec):
        if obs.stress:
            focused = {cid for cid, t in tags.items() if t is Tag.FOCUS}
            if focused != set(obs.stress):
                continue
        for surface in reference_realizations(spec, tags, lex, table):
            if surface.order == target:
                out.append(dict(tags))
                break
    return tuple(out)


def _outcome(fn, obs):
    try:
        return ("returned", fn(obs, _LEX))
    except Exception as err:  # the comparison is the point: any class must match
        return ("raised", type(err), str(err))


def _observation(seed):
    rng = random.Random(seed)
    spec = random_clause(rng, 8)
    spec = spec._replace(constituents=spec.constituents[: rng.randint(0, len(spec.constituents))])
    if rng.random() < 0.1:
        spec = broken_clause(rng, spec)
    ids = [c.id for c in spec.constituents]
    order = list(ids)
    rng.shuffle(order)
    focus = None
    kind = rng.choice(("linearized", "realized", "permutation"))
    if kind == "linearized":
        try:
            order = list(linearize(spec, random_assignment(rng, spec), _LEX).order)
        except (LinearizeError, ValueError):
            pass
    elif kind == "realized" and ids:
        tags = {cid: t for cid, t in random_assignment(rng, spec).items() if t is not Tag.FOCUS}
        focus = rng.choice([cid for cid in ids if cid not in tags] or ids)
        tags[focus] = Tag.FOCUS
        try:
            surfaces = reference_realizations(spec, tags, _LEX)
        except (LinearizeError, ValueError):
            surfaces = []
        if surfaces:
            order = list(rng.choice(surfaces).order)
    stress_kind = rng.choice(("none", "one", "unknown", "two"))
    if stress_kind == "one" and ids:
        stress = [focus if focus is not None and rng.random() < 0.5 else rng.choice(ids)]
    elif stress_kind == "unknown":
        stress = ["niemand"]
    elif stress_kind == "two" and len(set(ids)) >= 2:
        stress = rng.sample(sorted(set(ids)), 2)
    else:
        stress = []
    by_position = list(spec.constituents)
    rng.shuffle(by_position)
    # spec.by_id finds only the first constituent of a duplicated id.
    constituents = (
        tuple(spec.by_id(cid) for cid in order) if len(set(ids)) == len(ids) else tuple(by_position)
    )
    return ObservedClause(
        clause_type=spec.clause_type,
        verb=spec.verb,
        constituents=constituents,
        complementizer=spec.complementizer,
        stress=frozenset(stress),
    )


@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_explain_order_matches_reference_search(seed):
    obs = _observation(seed)
    assert _outcome(explain_order, obs) == _outcome(reference_explain_order, obs)


@pytest.mark.parametrize("search", [explain_order, reference_explain_order])
def test_unresolved_lexicon_key_raises_key_error(ex5_clause, lex, search):
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray,))
    with pytest.raises(KeyError, match="bald#25"):
        search(observed(spec, ["ich", "den-mann", "gestern", "bald"]), lex)
