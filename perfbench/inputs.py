"""Seeded workload inputs: clauses, tag assignments and observed orders.

The generator lives here rather than in ``tests/strategies.py`` so that the
workloads change only when the benchmark changes.  Every stream is a pure
function of its seed.  Inputs come in blocks in which each clause size
n = 1..10 occurs equally often (the ``analyze`` block also balances the three
input kinds), so a run's mix of sizes does not depend on where the clock
stopped.  Every ``analyze`` block holds each (size, kind) pair twice, and of
the two marked orders of a size one carries a stress mark and one does not:
a stress mark cuts the analysis search roughly tenfold, so every block must
have the same share of them.
"""

from __future__ import annotations

import random

from wortfolge.analyze import ObservedClause
from wortfolge.clause import Category, ClauseSpec, ClauseType, Constituent, FeatureBundle, Tag, VerbComplex
from wortfolge.linearize import LinearizeError, linearize, realizations

SIZES = tuple(range(1, 11))
ANALYZE_KINDS = ("unmarked", "marked", "permutation")
#: Whether the marked order carries a stress mark; every (size, kind) pair
#: occurs once per value in an ``analyze`` block.
ANALYZE_STRESS = (True, False)
ANALYZE_BLOCK = len(SIZES) * len(ANALYZE_KINDS) * len(ANALYZE_STRESS)
_SIGNS = ("+", "-")
_POOL = ("A", "D", "PO", "G", "M", "M", "M", "NOM", "ADJ")
_MAX_TRIES = 200


def _surface_for(entry):
    if "+ NP" in entry.lemma:
        return (entry.lemma.split(" ", 1)[0], "dem", "Haus")
    return (entry.lemma,)


def _nominal_features(rng, pronoun_share):
    if rng.random() < pronoun_share:
        return FeatureBundle(pronominal=True)
    return FeatureBundle(definite=rng.choice(_SIGNS), animate=rng.choice(_SIGNS))


def _constituent(cid, kind, rng, entries):
    if kind == "N":
        return Constituent(cid, Category.N, (cid,), _nominal_features(rng, 0.4))
    if kind == "M":
        entry = rng.choice(entries)
        return Constituent(
            cid, Category.M, _surface_for(entry),
            hoberg_index=entry.hoberg_index, lexicon_key=entry.key,
        )
    if kind in ("A", "D", "PO"):
        return Constituent(cid, Category(kind), (cid,), _nominal_features(rng, 0.3))
    if kind == "G":
        return Constituent(cid, Category.G, (cid,), FeatureBundle(pronominal=rng.random() < 0.5))
    if kind in ("SIT", "DIR", "EXP"):
        return Constituent(cid, Category(kind), (cid,))
    return Constituent(cid, Category(kind), (cid,), FeatureBundle(pronominal=rng.random() < 0.3))


def random_clause(rng: random.Random, n: int, entries) -> ClauseSpec:
    """A valid clause of exactly ``n`` constituents (at most one subject and
    at most one SIT/DIR/EXP, as the clause invariants require)."""
    clause_type = rng.choice((ClauseType.V2, ClauseType.VF))
    kinds = ["N"] if rng.random() < 0.85 else []
    exclusive_used = False
    while len(kinds) < n:
        if not exclusive_used and rng.random() < 0.15:
            kinds.append(rng.choice(("SIT", "DIR", "EXP")))
            exclusive_used = True
        else:
            kinds.append(rng.choice(_POOL))
    constituents = tuple(
        _constituent(f"c{i}-{kind.lower()}", kind, rng, entries) for i, kind in enumerate(kinds)
    )
    complementizer = "weil" if clause_type is ClauseType.VF and rng.random() < 0.8 else None
    return ClauseSpec(clause_type, VerbComplex(("hat",), ("gemacht",)), constituents, complementizer)


def random_tags(rng: random.Random, spec: ClauseSpec, kinds=(Tag.THEME, Tag.RHEME, Tag.FOCUS)):
    """At most one carrier per tag kind, each kind present with probability 0.4."""
    remaining = [c.id for c in spec.constituents]
    tags = {}
    for tag in kinds:
        if remaining and rng.random() < 0.4:
            cid = rng.choice(remaining)
            remaining.remove(cid)
            tags[cid] = tag
    return tags


def _observed(spec: ClauseSpec, order, stress=frozenset()) -> ObservedClause:
    by_id = {c.id: c for c in spec.constituents}
    return ObservedClause(
        spec.clause_type, spec.verb, tuple(by_id[cid] for cid in order),
        spec.complementizer, frozenset(stress),
    )


def _unmarked(rng, spec, lex, table):
    """A linearized order under focus-free tags, or None if none was found."""
    for _ in range(_MAX_TRIES):
        tags = random_tags(rng, spec, (Tag.THEME, Tag.RHEME))
        try:
            surface = linearize(spec, tags, lex, table)
        except LinearizeError:
            continue
        return _observed(spec, surface.order), tags
    return None


def _marked(rng, spec, lex, table, stressed):
    """A realization with a FOCUS tag, optionally carrying the stress mark."""
    for _ in range(_MAX_TRIES):
        focus = rng.choice(spec.constituents).id
        tags = {cid: t for cid, t in random_tags(rng, spec, (Tag.THEME, Tag.RHEME)).items() if cid != focus}
        tags[focus] = Tag.FOCUS
        surfaces = realizations(spec, tags, lex, table)
        if not surfaces:
            continue
        stress = {focus} if stressed else set()
        return _observed(spec, rng.choice(surfaces).order, stress), tags
    return None


def _permutation(rng, spec):
    order = [c.id for c in spec.constituents]
    rng.shuffle(order)
    return _observed(spec, order), None


def generate_stream(seed: int, entries):
    """Endless ``(n, spec, tags)`` items for ``linearize``; some are inexpressible."""
    rng = random.Random(f"generate:{seed}")
    while True:
        for n in rng.sample(SIZES, len(SIZES)):
            spec = random_clause(rng, n, entries)
            yield n, spec, random_tags(rng, spec)


def enumerate_stream(seed: int, entries):
    """Endless ``(n, spec)`` items for ``enumerate_orders``."""
    rng = random.Random(f"enumerate:{seed}")
    while True:
        for n in rng.sample(SIZES, len(SIZES)):
            yield n, random_clause(rng, n, entries)


def analyze_stream(seed: int, entries, lex, table):
    """Endless ``(n, kind, observed, tags)`` items for ``analyze``.

    ``tags`` is the assignment that produced the order (None for random
    permutations).  Producing the grammatical orders calls ``linearize`` and
    ``realizations``; the benchmark makes these calls outside the measured
    region and outside any traced operation.
    """
    rng = random.Random(f"analyze:{seed}")
    block = [(n, kind, stressed) for n in SIZES for kind in ANALYZE_KINDS for stressed in ANALYZE_STRESS]
    while True:
        for n, kind, stressed in rng.sample(block, len(block)):
            item = None
            while item is None:
                spec = random_clause(rng, n, entries)
                if kind == "unmarked":
                    item = _unmarked(rng, spec, lex, table)
                elif kind == "marked":
                    item = _marked(rng, spec, lex, table, stressed)
                else:
                    item = _permutation(rng, spec)
            yield (n, kind) + item
