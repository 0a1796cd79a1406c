"""Random clause generators shared by the property tests.

Two flavours: hypothesis strategies for shrinkable properties, and plain
seeded-RNG generators for the fixed-count acceptance runs (which need an exact
number of valid samples rather than a search budget) and for the inputs of
the differential tests, valid and broken alike.
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
    LinearizeError,
    Tag,
    VerbComplex,
    linearize,
)
from wortfolge.lexicon import load_default_lexicon

from .oracle import reference_realizations

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
        # One in ten is a support-verb construction part (slot 27), three a pronoun.
        draw = rng.random()
        if draw < 0.1:
            features = FeatureBundle(svc=True)
        elif draw < 0.4:
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


def clause_and_tags(seed):
    """A clause of 0 to 8 constituents, one in ten broken, and an assignment.

    One assignment in five gets one more carrier, which may be an unknown id
    or repeat a tag kind.
    """
    rng = random.Random(seed)
    spec = random_clause(rng, 8)
    spec = spec._replace(constituents=spec.constituents[: rng.randint(0, len(spec.constituents))])
    if rng.random() < 0.1:
        spec = broken_clause(rng, spec)
    tags = random_assignment(rng, spec)
    if rng.random() < 0.2:
        ids = [c.id for c in spec.constituents if c.id not in tags]
        tags[rng.choice(ids + ["niemand"])] = rng.choice(list(Tag))
    return spec, tags


def observation(seed):
    """An observed clause of 0 to 8 constituents, one in ten broken.

    Its order is a linearization, a reference realization under a focus, or
    a random permutation, a third each; its stress marks are none, one
    constituent, an unknown id or two ids, a quarter each.
    """
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
    return spec._replace(constituents=constituents, stress=stress)


# hypothesis strategies ------------------------------------------------------

def specs_with_tags(max_constituents=5):
    def build(seed):
        rng = random.Random(seed)
        spec = random_clause(rng, max_constituents)
        return spec, random_assignment(rng, spec)

    return st.integers(min_value=0, max_value=2**32 - 1).map(build)
