"""Small-scope exhaustive check: every clause of a few constituents, one constituent per class.

Compiling reads a constituent only through the facts of its signature (its
slot keys per tag, typically-rhematic flag and cooccurrence group), its
lexicon entry, its id and its tokens.  So every answer on a clause follows
from the class of each constituent and its position, and the classes are
few.  :func:`representatives` derives them from the loaded table and
lexicon with the oracle's own matcher: it draws every non-modifier category
under every pronominal, SVC, definiteness and animacy setting, every
modifier Hoberg index 1..44 without a lexicon key and every lexicon entry,
and groups them by what the oracle reads of them.  A custom table gets its
own classes.  ``test_every_candidate_compiles_as_its_representative`` backs
the class claim on the engine's side.

Tier-1 checks every one-constituent clause, V2 and VF, against
``tests/oracle.py``: ``enumerate_orders``, ``realizations`` under every
assignment, and ``analyze`` of each order without a stress mark and with one
on each constituent.  ``PYTHONPATH=src:. python -m tests.test_small_scope``
runs the same check on every clause of at most two constituents, the
classes drawn with repetition.
"""

from __future__ import annotations

import itertools
import time

from wortfolge import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    VerbComplex,
    analyze,
    enumerate_orders,
)
from wortfolge.clause import MINUS, PLUS
from wortfolge.lexicon import load_default_lexicon
from wortfolge.linearize import CompiledClause, realizations
from wortfolge.slots import KEY_TAGS, _signature, build_slot_table

from .oracle import (
    agree,
    outcome,
    placing_patterns,
    reference_analyze,
    reference_assignments,
    reference_enumerate_orders,
    reference_realizations,
    reference_typically_rhematic,
    reference_validate_clause,
)

VERB = VerbComplex(("hat",), ("gesehen",))
EXCLUSIVE = (Category.SIT, Category.DIR, Category.EXP)


def _alone(x: Constituent) -> ClauseSpec:
    return ClauseSpec(ClauseType.VF, VERB, (x,))


def _candidates(lex):
    """Every constituent the classes are drawn from, each with the id ``x``."""
    settings = list(itertools.product((False, True), (False, True), (PLUS, MINUS), (PLUS, MINUS)))
    for category in Category:
        if category is not Category.M:
            for pron, svc, definite, animate in settings:
                yield Constituent("x", category, ("x",), FeatureBundle(definite, animate, pron, svc))
    for index in range(1, 45):
        yield Constituent("x", Category.M, ("x",), hoberg_index=index)
    for entry in lex.entries():
        yield Constituent("x", Category.M, ("x",), hoberg_index=entry.hoberg_index, lexicon_key=entry.key)


def _oracle_class(table, lex, x):
    """What the oracle reads of ``x``: its defects, category groups and pronoun flag,
    the patterns that place it under each tag, its Hoberg index and typically
    rhematic flag, and its lexicon entry's lemma and flags."""
    placed = tuple(tuple((p.slot, p.sub_rank) for p in placing_patterns(table, x, tag)) for tag in KEY_TAGS)
    entry = None if x.lexicon_key is None else lex.get(x.lexicon_key)
    return (
        tuple(reference_validate_clause(_alone(x))),
        x.category is Category.N,
        x.category in EXCLUSIVE,
        x.category is Category.M,
        x.features.pronominal,
        placed,
        x.hoberg_index,
        bool(placed[0]) and reference_typically_rhematic(table, x),
        entry and (entry.lemma, entry.rhematic, entry.focusable, entry.vorfeld_capable),
    )


def _engine_facts(table, lex, x):
    """What the engine compiles of ``x`` alone (or its refusal), and its cooccurrence group."""
    compiled = outcome(CompiledClause, _alone(x), {}, lex, table)
    if compiled[0] == "returned":
        clause = compiled[1]
        compiled = clause.keys, clause.entries, clause.typically_rhematic, clause.vorfeld_capable, clause.subject
    return compiled, _signature(table, x, None)[3]


def classes(table, lex) -> dict:
    """Each class's members, keyed by what the oracle reads of them, in candidate order."""
    grouped: dict[tuple, list] = {}
    for x in _candidates(lex):
        grouped.setdefault(_oracle_class(table, lex, x), []).append(x)
    return grouped


def representatives(table, lex) -> list[Constituent]:
    """One constituent per class: the first of its members."""
    return [members[0] for members in classes(table, lex).values()]


def clauses(reps, size: int):
    """Every V2 and VF clause of 1..``size`` representatives, drawn with repetition."""
    for n in range(1, size + 1):
        for drawn in itertools.combinations_with_replacement(reps, n):
            constituents = tuple(x._replace(id=f"c{i}", surface=(f"c{i}",)) for i, x in enumerate(drawn))
            yield ClauseSpec(ClauseType.V2, VERB, constituents)
            yield ClauseSpec(ClauseType.VF, VERB, constituents, "dass")


def check(spec: ClauseSpec, lex, table) -> dict:
    """Compare every entry point with the oracle on ``spec``; counts of what was compared."""
    seen = {"enumerated": 0, "refused": 0, "realized": 0, "analyzed": 0, "documented": 0}
    got = outcome(enumerate_orders, spec, lex, table)
    seen["documented"] += not agree(got, outcome(reference_enumerate_orders, spec, lex, table), spec, table)
    seen["enumerated" if got[0] == "returned" else "refused"] += 1
    for tags in reference_assignments(spec):
        got = outcome(realizations, spec, tags, lex, table)
        seen["documented"] += not agree(got, outcome(reference_realizations, spec, tags, lex, table), spec, table)
        seen["realized"] += got[0] == "returned" and bool(got[1])
    for order in itertools.permutations(spec.order):
        for stress in ((), *((cid,) for cid in order)):
            obs = spec.reordered(order, stress)
            got = outcome(analyze, obs, lex, table)
            seen["documented"] += not agree(got, outcome(reference_analyze, obs, lex, table), obs, table)
            seen["analyzed"] += got[0] == "returned" and bool(got[1].explanations)
    return seen


def sweep(size: int, lex, table) -> dict:
    """:func:`check` on every clause of :func:`clauses`; the summed counts."""
    total = {"clauses": 0}
    for spec in clauses(representatives(table, lex), size):
        total["clauses"] += 1
        for name, count in check(spec, lex, table).items():
            total[name] = total.get(name, 0) + count
    return total


def test_every_candidate_compiles_as_its_representative(lex, table):
    grouped = classes(table, lex)
    for members in grouped.values():
        facts = _engine_facts(table, lex, members[0])
        for x in members[1:]:
            assert _engine_facts(table, lex, x) == facts, (members[0], x)
    # Fewer classes than candidates, and refused classes among them.
    assert len(grouped) < sum(map(len, grouped.values()))
    assert any(_engine_facts(table, lex, members[0])[0][0] == "raised" for members in grouped.values())


def test_every_one_constituent_clause_matches_the_oracle(lex, table):
    seen = sweep(1, lex, table)
    # Every kind of answer is reached: variants, refusals, realized assignments, explained orders.
    assert all(seen.values()), seen


if __name__ == "__main__":
    start = time.perf_counter()
    seen = sweep(2, load_default_lexicon(), build_slot_table())
    print(f"every clause of at most 2 constituents agrees with the oracle: {seen}, "
          f"{time.perf_counter() - start:.1f} s")
