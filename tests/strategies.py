"""Random clause generators shared by the property tests.

Two flavours: hypothesis strategies for shrinkable properties, and a plain
seeded-RNG generator for the fixed-count acceptance runs (which need an exact
number of valid samples rather than a search budget).
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from wortfolge import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    Tag,
    VerbComplex,
    linearize,
)
from wortfolge.lexicon import load_default_lexicon

_LEX = load_default_lexicon()
#: Single-word modifier readings from the shipped lexicon (pattern entries
#: like "mit + NP" get a synthetic surface below).
_MODIFIER_ENTRIES = tuple(
    entry for entry in sorted(_LEX.entries(), key=lambda e: (e.lemma, e.reading_id))
)

_SIGNS = ("+", "-")


def _surface_for(entry):
    if "+ NP" in entry.lemma:
        head = entry.lemma.split(" ", 1)[0]
        return (head, "dem", "Haus")
    return (entry.lemma,)


def _build_constituent(cid, kind, rng):
    if kind == "M":
        entry = rng.choice(_MODIFIER_ENTRIES)
        return Constituent(
            id=cid,
            category=Category.M,
            surface=_surface_for(entry),
            hoberg_index=entry.hoberg_index,
            lexicon_key=entry.key,
        )
    if kind in ("A", "D", "PO"):
        if rng.random() < 0.3:
            features = FeatureBundle(pronominal=True)
        else:
            features = FeatureBundle(definite=rng.choice(_SIGNS), animate=rng.choice(_SIGNS))
        return Constituent(cid, Category(kind), (cid,), features)
    if kind == "G":
        features = FeatureBundle(pronominal=rng.random() < 0.5)
        return Constituent(cid, Category.G, (cid,), features)
    if kind in ("SIT", "DIR", "EXP"):
        return Constituent(cid, Category(kind), (cid,))
    if kind in ("NOM", "ADJ"):
        return Constituent(cid, Category(kind), (cid,), FeatureBundle(pronominal=rng.random() < 0.3))
    raise ValueError(kind)


def random_clause(rng: random.Random, max_constituents: int = 6) -> ClauseSpec:
    """A random valid clause spec; constituents drawn from the shipped lexicon."""
    clause_type = rng.choice((ClauseType.V2, ClauseType.VF))
    n = rng.randint(1, max_constituents)
    kinds = []
    if rng.random() < 0.85:
        kinds.append("N")
    pool = ["A", "D", "PO", "G", "M", "M", "M", "NOM", "ADJ"]
    exclusive_used = False
    while len(kinds) < n:
        if not exclusive_used and rng.random() < 0.15:
            kinds.append(rng.choice(("SIT", "DIR", "EXP")))
            exclusive_used = True
        else:
            kinds.append(rng.choice(pool))
    constituents = []
    for i, kind in enumerate(kinds):
        if kind == "N":
            features = (
                FeatureBundle(pronominal=True)
                if rng.random() < 0.4
                else FeatureBundle(definite=rng.choice(_SIGNS), animate=rng.choice(_SIGNS))
            )
            constituents.append(Constituent(f"c{i}-n", Category.N, (f"c{i}n",), features))
        else:
            constituents.append(_build_constituent(f"c{i}-{kind.lower()}", kind, rng))
    complementizer = "weil" if clause_type is ClauseType.VF and rng.random() < 0.8 else None
    return ClauseSpec(
        clause_type=clause_type,
        verb=VerbComplex(("hat",), ("gemacht",)),
        constituents=tuple(constituents),
        complementizer=complementizer,
    )


def random_assignment(rng: random.Random, spec: ClauseSpec) -> dict:
    ids = [c.id for c in spec.constituents]
    tags = {}
    remaining = list(ids)
    for tag in (Tag.THEME, Tag.RHEME, Tag.FOCUS):
        if remaining and rng.random() < 0.4:
            cid = rng.choice(remaining)
            remaining.remove(cid)
            tags[cid] = tag
    return tags


def sample_valid_pairs(count: int, seed: int = 0, max_constituents: int = 6):
    """Exactly ``count`` (spec, tags) pairs on which linearize succeeds."""
    rng = random.Random(seed)
    lex = _LEX
    pairs = []
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("generator failed to produce enough valid pairs")
        spec = random_clause(rng, max_constituents)
        tags = random_assignment(rng, spec)
        try:
            linearize(spec, tags, lex)
        except Exception:
            continue
        pairs.append((spec, tags))
    return pairs


def broken_clause(rng: random.Random, spec: ClauseSpec) -> ClauseSpec:
    """A clause the engine must reject, one defect at a time."""
    defect = rng.choice(("second-subject", "two-exclusives", "no-finite", "duplicate-id", "bad-modifier"))
    if defect == "second-subject":
        extra = (Constituent("zweit", Category.N, ("zweit",), FeatureBundle(pronominal=True)),)
    elif defect == "two-exclusives":
        extra = (Constituent("dort", Category.SIT, ("dort",)), Constituent("hin", Category.DIR, ("hin",)))
    elif defect == "no-finite":
        return spec._replace(verb=VerbComplex(()))
    elif defect == "duplicate-id":
        extra = spec.constituents[:1]
    else:
        extra = (Constituent("kaum", Category.M, ("kaum",)),)
    return spec._replace(constituents=spec.constituents + extra)


class TaggedConstituent(Constituent):
    """A constituent carrying its information-structure tag.

    The engine takes tags only as an assignment; the reference
    implementations and the comparator-law pool model a tagged clause as its
    constituents with the tag attached.
    """

    __slots__ = ("tag",)

    def __init__(self, id, category, surface, features=FeatureBundle(), hoberg_index=None, lexicon_key=None,
                 tag: Tag | None = None):
        super().__init__(id, category, surface, features, hoberg_index, lexicon_key)
        object.__setattr__(self, "tag", tag)


def with_tag(c: Constituent, tag: Tag | None) -> TaggedConstituent:
    """``c`` carrying ``tag`` (None: untagged)."""
    return TaggedConstituent(c.id, c.category, c.surface, c.features, c.hoberg_index, c.lexicon_key, tag)


# hypothesis strategies ------------------------------------------------------

def specs_with_tags(max_constituents=5):
    def build(seed):
        rng = random.Random(seed)
        spec = random_clause(rng, max_constituents)
        return spec, random_assignment(rng, spec)

    return st.integers(min_value=0, max_value=2**32 - 1).map(build)
