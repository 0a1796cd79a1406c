"""Differential test: ``realizations`` and ``enumerate_orders`` against the search they replaced.

``reference_realizations`` and ``reference_enumerate_orders`` are the
generate-and-test implementations that ran before both moved onto the
compiled clause: every assignment rebuilds the tagged clause, validates it
again and keys every constituent again.  The engine must return equal
results, or raise the same exception class with the same message.  The
references use only the engine's slot keys, never the validation or
realization code they check; the validators and generator helpers they were
written with are frozen here too, and a tagged clause is modelled with the
test-local ``with_tag``.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import (
    Category,
    ClauseType,
    Constituent,
    Tag,
    enumerate_orders,
    realizations,
)
from wortfolge.linearize import (
    MAX_SEARCH_CONSTITUENTS,
    CooccurrenceViolation,
    InexpressibleTags,
    NoVorfeld,
    OrderVariant,
    SurfaceOrder,
    iter_assignments,
)
from wortfolge.clause import FEATURE_KEYED_CATEGORIES, NA, VERBAL_CATEGORIES
from wortfolge.slots import NoSlotError, all_sort_keys, build_slot_table, sort_key

from .strategies import _LEX, broken_clause, random_assignment, random_clause, with_tag


# Frozen copies of the validators and generator helpers the references were
# written with, as they stood before generation moved onto the compiled
# clause and validation into one pass.

def reference_validate_clause(spec):
    """Every violated domain invariant of the clause, less the counts of
    embedded tags (a clause carries none)."""
    violations = []

    if not spec.verb.finite:
        violations.append("verb complex has no finite part")
    if not all(isinstance(tok, str) and tok.strip() for tok in spec.verb.finite + spec.verb.nonfinite):
        violations.append("verb complex has a blank or non-string token")
    if spec.complementizer is not None and spec.clause_type is not ClauseType.VF:
        violations.append("complementizer requires a verb-final clause")

    seen_ids = set()
    n_count = 0
    exclusive_count = 0
    for c in spec.constituents:
        if c.id in seen_ids:
            violations.append(f"duplicate constituent id {c.id!r}")
        seen_ids.add(c.id)
        if c.category in VERBAL_CATEGORIES:
            violations.append(f"{c.id}: verbs belong in the verb complex, not the constituent set")
            continue
        if not c.surface:
            violations.append(f"{c.id}: empty surface")
        elif not all(isinstance(tok, str) and tok.strip() for tok in c.surface):
            violations.append(f"{c.id}: blank or non-string surface token")
        if c.category is Category.M:
            if c.hoberg_index is None:
                violations.append(f"{c.id}: modifier without Hoberg index")
            elif not 1 <= c.hoberg_index <= 44:
                violations.append(f"{c.id}: Hoberg index {c.hoberg_index} outside 1..44")
        elif c.hoberg_index is not None:
            violations.append(f"{c.id}: Hoberg index on non-modifier")
        if c.category is Category.N:
            n_count += 1
        if c.category in (Category.SIT, Category.DIR, Category.EXP):
            exclusive_count += 1
        if (
            c.category in FEATURE_KEYED_CATEGORIES
            and not c.features.pronominal
            and not c.features.svc
        ):
            if c.features.definite == NA or c.features.animate == NA:
                violations.append(
                    f"{c.id}: {c.category.value} requires resolved definiteness/animacy"
                )

    if n_count > 1:
        violations.append("duplicate nominative")
    if exclusive_count > 1:
        violations.append("SIT/DIR/EXP cannot cooccur")
    return violations


def reference_check_assignment(spec, tags):
    """Violations of assignment well-formedness (ids exist, one tag each kind)."""
    violations = []
    known = {c.id for c in spec.constituents}
    for cid in tags:
        if cid not in known:
            violations.append(f"unknown constituent id {cid!r}")
    for tag in Tag:
        carriers = [cid for cid, t in tags.items() if t is tag]
        if len(carriers) > 1:
            violations.append(f"{tag.value.lower()} cardinality: {', '.join(sorted(carriers))}")
    return violations


def _reference_apply_tags(spec, tags):
    """The clause with each constituent carrying its tag in the assignment."""
    return spec._replace(constituents=tuple(with_tag(c, tags.get(c.id)) for c in spec.constituents))


def reference_typically_rhematic(table, c):
    """Whether the constituent is an indefinite object or its untagged slot lies in the late field."""
    try:
        slot = sort_key(table, c, 0).slot
    except NoSlotError:
        slot = None
    if c.category in (Category.A, Category.D) and c.indefinite:
        return True
    return slot is not None and slot >= table.late_field_start


def reference_check_cooccurrence(spec):
    """Clause-level slash-group violations, focus counted from the embedded tags."""
    violations = []
    n_members = [c.id for c in spec.constituents if c.category is Category.N]
    if len(n_members) > 1:
        violations.append(f"nominative alternatives cannot cooccur: {', '.join(n_members)}")
    exclusives = [
        c.id
        for c in spec.constituents
        if c.category in (Category.SIT, Category.DIR, Category.EXP)
    ]
    if len(exclusives) > 1:
        violations.append(f"SIT/DIR/EXP cannot cooccur: {', '.join(exclusives)}")
    focused = [c.id for c in spec.constituents if c.tag is Tag.FOCUS]
    if len(focused) > 1:
        violations.append(f"focus slot admits one constituent: {', '.join(focused)}")
    for c in spec.constituents:
        if c.category in VERBAL_CATEGORIES:
            violations.append(f"{c.id}: verbs are not orderable constituents")
    return violations


def _reference_check_clause(spec, tagged_spec, table):
    cooccurrence = reference_check_cooccurrence(tagged_spec)
    if cooccurrence:
        raise CooccurrenceViolation(cooccurrence)
    spec_violations = reference_validate_clause(spec)
    if spec_violations:
        raise ValueError("invalid clause spec: " + "; ".join(spec_violations))


def _reference_vorfeld_capable(c, lex):
    if c.lexicon_key is None:
        return True
    entry = lex.get(c.lexicon_key)
    if entry is None:
        raise KeyError(f"unresolved lexicon key {c.lexicon_key!r} on {c.id}")
    return entry.vorfeld_capable


def _reference_tagged(tagged_spec, tag):
    for c in tagged_spec.constituents:
        if c.tag is tag:
            return c
    return None


def reference_select_vorfeld(spec, tags, lex, table):
    """The Vorfeld occupant: theme if capable, else subject unless rhematic, else the lowest capable key."""
    tagged_spec = _reference_apply_tags(spec, tags)
    theme = _reference_tagged(tagged_spec, Tag.THEME)
    if theme is not None and _reference_vorfeld_capable(theme, lex):
        return theme.id
    subject = tagged_spec.subject()
    if subject is not None and subject.tag is not Tag.RHEME:
        return subject.id
    candidates = []
    for ordinal, c in enumerate(tagged_spec.constituents):
        if c.tag is Tag.RHEME or not _reference_vorfeld_capable(c, lex):
            continue
        try:
            key = sort_key(table, c, ordinal, tag=c.tag, lex=lex)
        except NoSlotError:
            continue
        candidates.append((key, c.id))
    if not candidates:
        raise NoVorfeld("no Vorfeld-capable constituent")
    return min(candidates)[1]


def _reference_check_theme_admissible(tagged_spec, table):
    theme = _reference_tagged(tagged_spec, Tag.THEME)
    if theme is not None and reference_typically_rhematic(table, theme):
        raise InexpressibleTags(
            f"{theme.id} defaults to the late field and cannot be thematic; "
            "it opens the clause only under contrastive focus"
        )


def reference_assignments(spec):
    """Every tag assignment within the cardinality limits, the empty one first."""
    ids = [c.id for c in spec.constituents]
    for theme in [None] + ids:
        for rheme in [None] + ids:
            if rheme is not None and rheme == theme:
                continue
            for focus in [None] + ids:
                if focus is not None and focus in (theme, rheme):
                    continue
                tags = {}
                if theme is not None:
                    tags[theme] = Tag.THEME
                if rheme is not None:
                    tags[rheme] = Tag.RHEME
                if focus is not None:
                    tags[focus] = Tag.FOCUS
                yield tags


def _reference_render(tagged_spec, ordered, vorfeld):
    def emit(c):
        if c.tag is Tag.FOCUS:
            return tuple(tok.upper() for tok in c.surface)
        return c.surface

    tokens = []
    if tagged_spec.clause_type is ClauseType.V2:
        tokens += emit(vorfeld)
        tokens += tagged_spec.verb.finite
        for c in ordered:
            tokens += emit(c)
        tokens += tagged_spec.verb.nonfinite
        if tokens and tokens[0]:
            tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    else:
        if tagged_spec.complementizer:
            tokens.append(tagged_spec.complementizer)
        for c in ordered:
            tokens += emit(c)
        tokens += tagged_spec.verb.nonfinite
        tokens += tagged_spec.verb.finite
    return tuple(tokens)


def _reference_surface(tagged_spec, keyed, vorfeld):
    ordered = [c for _, c in keyed]
    return SurfaceOrder(
        clause_type=tagged_spec.clause_type,
        vorfeld=vorfeld.id if vorfeld is not None else None,
        mittelfeld=tuple(c.id for c in ordered),
        rendered=_reference_render(tagged_spec, ordered, vorfeld),
        keys=tuple((c.id, key) for key, c in keyed),
    )


def reference_realizations(spec, tags, lex, table=None):
    """All surface orders the assignment licenses, by keying the tagged clause."""
    table = table or build_slot_table()
    tagged_spec = _reference_apply_tags(spec, tags)
    _reference_check_clause(spec, tagged_spec, table)
    if reference_check_assignment(spec, tags):
        return []
    try:
        _reference_check_theme_admissible(tagged_spec, table)
    except InexpressibleTags:
        return []

    theme = _reference_tagged(tagged_spec, Tag.THEME)
    focus = _reference_tagged(tagged_spec, Tag.FOCUS)

    if spec.clause_type is ClauseType.V2:
        vorfeld_ids = []
        if theme is not None:
            if _reference_vorfeld_capable(theme, lex):
                vorfeld_ids.append(theme.id)
        else:
            try:
                vorfeld_ids.append(reference_select_vorfeld(spec, tags, lex, table))
            except NoVorfeld:
                pass
            if focus is not None and _reference_vorfeld_capable(focus, lex) and focus.id not in vorfeld_ids:
                vorfeld_ids.append(focus.id)
    else:
        vorfeld_ids = [None]

    results = []
    seen = set()
    for vorfeld_id in vorfeld_ids:
        vorfeld = tagged_spec.by_id(vorfeld_id) if vorfeld_id is not None else None
        try:
            choice_lists = []
            for ordinal, c in enumerate(tagged_spec.constituents):
                if c.id == vorfeld_id:
                    continue
                keys = all_sort_keys(table, c, ordinal, tag=c.tag, lex=lex)
                choice_lists.append([(key, c) for key in keys])
        except NoSlotError:
            continue
        for combo in itertools.product(*choice_lists):
            keyed = sorted(combo, key=lambda kc: kc[0])
            surface = _reference_surface(tagged_spec, keyed, vorfeld)
            if surface.order not in seen:
                seen.add(surface.order)
                results.append(surface)
    return results


def reference_enumerate_orders(spec, lex, table=None):
    """Every assignment's realizations, grouped by order; unmarked surfaces preferred."""
    if len(spec.constituents) > MAX_SEARCH_CONSTITUENTS:
        raise ValueError(
            f"clause has {len(spec.constituents)} constituents; "
            f"exhaustive search is capped at {MAX_SEARCH_CONSTITUENTS}"
        )
    table = table or build_slot_table()
    grouped = {}
    for tags in reference_assignments(spec):
        focus_free = Tag.FOCUS not in tags.values()
        for surface in reference_realizations(spec, tags, lex, table):
            key = (surface.vorfeld, surface.mittelfeld)
            slot = grouped.setdefault(key, {"surface": surface, "focus_free": focus_free, "assignments": []})
            if focus_free and not slot["focus_free"]:
                slot["surface"] = surface
                slot["focus_free"] = True
            frozen = tuple(sorted(tags.items()))
            if frozen not in slot["assignments"]:
                slot["assignments"].append(frozen)
    return tuple(
        OrderVariant(
            vorfeld=key[0],
            mittelfeld=key[1],
            surface=slot["surface"],
            assignments=tuple(slot["assignments"]),
        )
        for key, slot in grouped.items()
    )


def _outcome(fn, *args):
    try:
        return ("returned", fn(*args, _LEX))
    except Exception as err:  # the comparison is the point: any class must match
        return ("raised", type(err), str(err))


def _clause_and_tags(seed):
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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_realization_matches_reference_search(seed):
    spec, tags = _clause_and_tags(seed)
    assert _outcome(realizations, spec, tags) == _outcome(reference_realizations, spec, tags)
    assert _outcome(enumerate_orders, spec) == _outcome(reference_enumerate_orders, spec)


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


def test_unresolved_lexicon_key_raises_key_error_for_every_assignment(ex5_clause, lex):
    # Keying each assignment separately resolves a key only when an
    # assignment reaches it, so the untagged and the malformed assignments
    # would return without raising.
    stray = Constituent("bald", Category.M, ("bald",), hoberg_index=25, lexicon_key="bald#25")
    later = Constituent("nie", Category.M, ("nie",), hoberg_index=30, lexicon_key="nie#30")
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (stray, later))
    for tags in ({}, {"bald": Tag.FOCUS}, {"niemand": Tag.THEME}):
        with pytest.raises(KeyError, match="bald#25"):
            realizations(spec, tags, lex)
    with pytest.raises(KeyError, match="bald#25"):
        enumerate_orders(spec, lex)
