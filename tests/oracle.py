"""Frozen reference implementations that the differential tests check the engine against.

Each reference is the generate-and-test code that ran before the engine
moved onto the compiled clause.  It rebuilds the tagged clause for every
assignment, validates it again, keys every constituent again and, for
analysis, searches every realization of every assignment.  The validators,
recognizers and detectors the references were written with are frozen here
too.

The references key constituents with their own reader of the slot table
(:func:`placing_patterns`, under :func:`sort_key` and :func:`all_sort_keys`).
It compares the pattern fields directly, so the engine's slot matcher (the
signature index and ``SlotPattern.matches``) is checked against code it does
not share.  From the engine the oracle takes only value types, exception
types, the search cap and the table loader; ``tests/test_api.py`` holds it to
that.  A tagged clause is modelled as its constituents with the tag attached
(:func:`with_tag`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from wortfolge import (
    AnalysisResult,
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    CooccurrenceViolation,
    FeatureBundle,
    InexpressibleTags,
    NoVorfeld,
    OrderVariant,
    StressWarning,
    SurfaceOrder,
    Tag,
    Verdict,
    build_slot_table,
)
from wortfolge.linearize import MAX_SEARCH_CONSTITUENTS

#: A slot key: it sorts and compares as the plain ``(slot, sub_rank, hoberg,
#: input_ordinal)`` tuple the engine uses, and names its fields for the
#: references that read them.
SlotKey = namedtuple("SlotKey", ("slot", "sub_rank", "hoberg", "input_ordinal"))

# --- tagged clauses ------------------------------------------------------------


class TaggedConstituent(Constituent):
    """A constituent carrying its information-structure tag.

    The engine takes tags only as an assignment; the references and the
    comparator-law pool model a tagged clause as its constituents with the
    tag attached.
    """

    __slots__ = ("tag",)

    def __init__(self, id, category, surface, features=FeatureBundle(), hoberg_index=None, lexicon_key=None,
                 tag: Tag | None = None):
        super().__init__(id, category, surface, features, hoberg_index, lexicon_key)
        object.__setattr__(self, "tag", tag)


def with_tag(c: Constituent, tag: Tag | None) -> TaggedConstituent:
    """``c`` carrying ``tag`` (None: untagged)."""
    return TaggedConstituent(c.id, c.category, c.surface, c.features, c.hoberg_index, c.lexicon_key, tag)


# --- the keyer -------------------------------------------------------------------


class NoSlotError(Exception):
    """A constituent matches no slot under its tag: the tagging is inexpressible."""

    def __init__(self, constituent, tag, reason=""):
        self.constituent = constituent
        self.tag = tag
        detail = f" ({reason})" if reason else ""
        label = tag.value if tag else "untagged"
        super().__init__(f"no slot for {constituent.id} as {label}{detail}")


def placing_patterns(table, x, tag):
    """The patterns that place ``x`` under ``tag``: the first match per slot
    for FOCUS, the first match overall otherwise.  Reads the pattern fields
    directly, without ``SlotPattern.matches``."""
    f = x.features
    placing = []
    for p in table.patterns:
        if p.required_tag is not tag or any(q.slot == p.slot for q in placing):
            continue
        fits = (
            p.svc == f.svc
            and p.category in (None, x.category)
            and p.pron in (None, f.pronominal)
            and (p.definite is None or (not f.pronominal and p.definite == f.definite))
            and (p.animate is None or (not f.pronominal and p.animate == f.animate))
            and (p.hoberg_lo is None or (x.hoberg_index is not None and p.hoberg_lo <= x.hoberg_index <= p.hoberg_hi))
        )
        if fits:
            placing.append(p)
            if tag is not Tag.FOCUS:
                break
    return placing


def _reference_entry(c, lex):
    """The constituent's lexicon entry, None without a key.

    An unresolved key, or a given Hoberg index that contradicts the entry's
    class, raises the engine's invalid-clause ``ValueError``.
    """
    if c.lexicon_key is None:
        return None
    entry = lex.get(c.lexicon_key)
    if entry is None:
        lemma = c.lexicon_key.split("#", 1)[0]
        raise ValueError(f"invalid clause spec: {c.id}: lexicon has no reading {c.lexicon_key!r} (lemma {lemma!r})")
    if c.hoberg_index is not None and c.hoberg_index != entry.hoberg_index:
        raise ValueError(
            f"invalid clause spec: {c.id}: hoberg_index {c.hoberg_index} contradicts {entry.key} "
            f"(class {entry.hoberg_index})"
        )
    return entry


def _reference_lexical_veto(tag, entry):
    if entry is None or tag is None:
        return None
    if tag is Tag.RHEME and not entry.rhematic:
        return f"{entry.lemma} is lexically non-rhematic"
    if tag is Tag.FOCUS and not entry.focusable:
        return f"{entry.lemma} is lexically non-focusable"
    return None


def all_sort_keys(table, c, input_ordinal, tag=None, lex=None):
    """Every slot key the constituent can occupy under the tag, in table order.

    The lexicon is consulted only for a tagged constituent, and its veto
    leaves no key.  An untagged constituent without a slot is an invalid
    clause (``ValueError``); a tagging without one raises
    :class:`NoSlotError`, with the veto as its reason.
    """
    entry = None if tag is None or lex is None else _reference_entry(c, lex)
    veto = _reference_lexical_veto(tag, entry)
    hoberg = c.hoberg_index or 0
    patterns = [] if veto else placing_patterns(table, c, tag)
    keys = tuple(SlotKey(p.slot, p.sub_rank, hoberg, input_ordinal) for p in patterns)
    if not keys and tag is None:
        raise ValueError(f"invalid clause spec: {c.id}: no untagged slot")
    if not keys:
        raise NoSlotError(c, tag, veto or "")
    return keys


def sort_key(table, c, input_ordinal, tag=None, lex=None):
    """The first of :func:`all_sort_keys`: the early focus slot, for a focus."""
    return all_sort_keys(table, c, input_ordinal, tag=tag, lex=lex)[0]


# --- validators and generator helpers -------------------------------------------
# Frozen as they stood before generation moved onto the compiled clause and
# validation into one pass, with the engine's constants copied alongside.

NA = "na"
FEATURE_KEYED_CATEGORIES = frozenset({Category.N, Category.A, Category.D, Category.PO})


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
    return violations


def _reference_check_clause(spec, tagged_spec, table):
    cooccurrence = reference_check_cooccurrence(tagged_spec)
    if cooccurrence:
        raise CooccurrenceViolation(cooccurrence)
    spec_violations = reference_validate_clause(spec)
    if spec_violations:
        raise ValueError("invalid clause spec: " + "; ".join(spec_violations))


def _reference_vorfeld_capable(c, lex):
    entry = _reference_entry(c, lex)
    return entry is None or entry.vorfeld_capable


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
    subject = next((c for c in tagged_spec.constituents if c.category is Category.N), None)
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


def iter_assignments(themes, rhemes, focuses):
    """Every tag assignment of the candidate carriers within the cardinality limits.

    Yields ``(theme, rheme, focus)`` carrier ordinals, None for an absent tag,
    nested theme, rheme, focus in the candidates' order; no constituent
    carries two tags.  This is the order in which ``CompiledClause.realize``
    searches, so it lists each order's carriers in it, and ``enumerate_orders``
    each variant's assignments.
    """
    for theme in themes:
        for rheme in rhemes:
            if rheme is not None and rheme == theme:
                continue
            for focus in focuses:
                if focus is None or focus not in (theme, rheme):
                    yield theme, rheme, focus


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
        vorfeld=vorfeld.id if vorfeld is not None else None,
        rendered=_reference_render(tagged_spec, ordered, vorfeld),
        keys=tuple((c.id, key) for key, c in keyed),
    )


# --- realization and enumeration ----------------------------------------------


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
        OrderVariant(surface=slot["surface"], assignments=tuple(slot["assignments"]))
        for slot in grouped.values()
    )


# --- the deterministic generator ----------------------------------------------


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


# --- analysis ------------------------------------------------------------------


def reference_explain_order(obs, lex, table=None):
    """Every tag assignment whose realizations include the observed order."""
    if len(obs.constituents) > MAX_SEARCH_CONSTITUENTS:
        raise ValueError(
            f"clause has {len(obs.constituents)} constituents; "
            f"exhaustive search is capped at {MAX_SEARCH_CONSTITUENTS}"
        )
    table = table or build_slot_table()
    spec = ClauseSpec(obs.clause_type, obs.verb, obs.constituents, obs.complementizer)
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


def reference_recognize_focus(explanations):
    """Obligatory focus: ``(id, options)`` when every explanation focuses the
    same constituent, ``(None, candidates)`` when they disagree."""
    if not explanations:
        return None, ()
    focused_per_explanation = []
    for tags in explanations:
        focused = [cid for cid, t in tags.items() if t is Tag.FOCUS]
        if not focused:
            return None, ()  # a focus-free explanation exists: no obligatory focus
        focused_per_explanation.append(focused[0])
    unique = sorted(set(focused_per_explanation))
    if len(unique) == 1:
        return unique[0], tuple(unique)
    return None, tuple(unique)


def reference_recognize_theme(obs, focus_ids=()):
    """The clause-initial constituent, unless it was identified as the focus."""
    if not obs.constituents:
        return None
    first = obs.constituents[0]
    if first.id in focus_ids:
        return None
    return first.id


def reference_inherently_non_rhematic(c, lex):
    """A pronoun or a lexically non-rhematic entry; a lexicon defect raises ``ValueError``."""
    entry = _reference_entry(c, lex)
    return c.features.pronominal or (entry is not None and not entry.rhematic)


def reference_recognize_rheme(obs, lex):
    """The final constituent, unless it is inherently non-rhematic."""
    if not obs.constituents:
        return None
    last = obs.constituents[-1]
    if reference_inherently_non_rhematic(last, lex):
        return None
    return last.id


def reference_detect_focus_constructions(obs, lex, table=None):
    """The direct detectors as they stood before they read the compiled clause."""
    table = table or build_slot_table()

    def rheme_expressible(c):
        try:
            sort_key(table, c, 0, tag=Tag.RHEME, lex=lex)
        except (NoSlotError, ValueError):
            return False
        return True

    hits = []
    if obs.clause_type is ClauseType.V2 and obs.constituents:
        vorfeld = obs.constituents[0]
        if reference_typically_rhematic(table, vorfeld):
            has_unmarked_opener = any(
                not reference_typically_rhematic(table, c)
                and _reference_vorfeld_capable(c, lex)
                and not rheme_expressible(c)
                for c in obs.constituents[1:]
            )
            if has_unmarked_opener:
                hits.append(vorfeld.id)
    start = 1 if obs.clause_type is ClauseType.V2 else 0
    seen_modifier = False
    for c in obs.constituents[start:]:
        if c.category is Category.M:
            seen_modifier = True
        elif c.features.pronominal and seen_modifier and c.id not in hits:
            try:
                default = sort_key(table, c, 0)
            except NoSlotError:
                continue
            if default.slot < table.modifier_band_start and not rheme_expressible(c):
                hits.append(c.id)
    return tuple(hits)


def reference_analyze(obs, lex, table=None):
    """Explanations, verdict, focus, theme and rheme, then the detectors."""
    table = table or build_slot_table()
    explanations = reference_explain_order(obs, lex, table)
    focus, focus_options = reference_recognize_focus(explanations)
    theme = reference_recognize_theme(obs, focus_ids=focus_options)
    rheme = reference_recognize_rheme(obs, lex)
    detected = reference_detect_focus_constructions(obs, lex, table)

    costs = [sum(1 for t in tags.values() if t is Tag.FOCUS) for tags in explanations]
    markedness_cost = min(costs) if costs else 0

    warning = None
    if (
        explanations
        and obs.clause_type is ClauseType.V2
        and obs.constituents
        and reference_inherently_non_rhematic(obs.constituents[-1], lex)
        and obs.constituents[-1].id not in focus_options
    ):
        warning = StressWarning(
            verb_candidate=" ".join(obs.verb.finite),
            vorfeld_candidate=obs.constituents[0].id,
        )

    if not explanations:
        verdict = Verdict.UNGRAMMATICAL
    elif markedness_cost > 0 or warning is not None:
        verdict = Verdict.GRAMMATICAL_MARKED
    else:
        verdict = Verdict.GRAMMATICAL_UNMARKED

    return AnalysisResult(
        verdict=verdict,
        theme=theme,
        rheme=rheme,
        focus=focus,
        focus_options=focus_options,
        explanations=tuple(tuple(sorted(tags.items())) for tags in explanations),
        markedness_cost=markedness_cost,
        warning=warning,
        detected_focus=detected,
    )


# --- comparing ---------------------------------------------------------------------


def outcome(fn, *args):
    """``("returned", value)``, or ``("raised", class, message)``: what the
    engine and a reference must agree on."""
    try:
        return ("returned", fn(*args))
    except Exception as err:  # the comparison is the point: any class must match
        return ("raised", type(err), str(err))


def agree(got, want, spec, table) -> bool:
    """Whether the engine's outcome equals the reference's; False for the documented difference.

    The engine refuses a clause in which a constituent has no untagged slot
    (``invalid clause spec: ...: no untagged slot``), whatever the
    assignment; the references predate that refusal and raise it only where
    they key such a constituent outside the Vorfeld.  Any other difference
    fails, and so does that refusal unless the oracle's own matcher cannot
    place one of the constituents untagged either.
    """
    if got == want:
        return True
    assert got[0] == "raised" and got[2].endswith("no untagged slot"), (got, want)
    assert any(not placing_patterns(table, c, None) for c in spec.constituents), (got, want)
    return False


def unusable_stress(obs):
    """Whether the observation's stress marks are ones no assignment can carry
    (an unknown id, two ids).

    The one intended difference from the references: they never validated a
    clause under such marks and called it UNGRAMMATICAL, while the engine
    compiles the clause first, so there it raises exactly what it raises for
    the same clause without stress.
    """
    return bool(obs.stress) and not (len(obs.stress) == 1 and obs.stress <= set(obs.order))
