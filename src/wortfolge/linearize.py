"""Generation: order an unordered clause under a theme/rheme/focus assignment.

The Mittelfeld is ordered by the canonical slot table; in V2 clauses one
constituent moves into the Vorfeld (the theme if there is one, otherwise the
subject); the verb positions are fixed by clause type.

:func:`linearize` is the deterministic generator.  The realization relation
is slightly wider: it additionally admits the two marked constructions an
observed sentence may exhibit, namely a focused constituent fronted into the
Vorfeld and a focused constituent surfacing in the late (general) focus slot
instead of the early one.  Every output of ``linearize`` is among its
realizations.  Generation, realization, enumeration and analysis share one
implementation, :class:`CompiledClause`: the clause is validated and keyed
once, with its theme and Vorfeld rules
(:meth:`CompiledClause.admits_theme`, :meth:`CompiledClause.vorfeld_pick`),
then used forwards (:func:`linearize` takes each element's first key;
:meth:`CompiledClause.realize`, behind :func:`realizations` and
:func:`enumerate_orders`, takes every key) and backwards, by the analyzer's
one walk over a given order, which compares only adjacent keys.
Every direction compiles alike, one signature-index lookup per constituent;
only the forward sorts append the input ordinal, to break ties.  An
assignment moves at most three constituents away from the untagged order,
so :meth:`CompiledClause.realize` sorts the untagged keys once per clause,
places each theme and rheme pair once for all its focuses, per focus and
Vorfeld candidate swaps in only the focus's keys, and groups assignments by
order as it goes.  :func:`enumerate_orders` leaves out carriers that can
license nothing under their tag and renders each group once, from its tokens.
"""

from __future__ import annotations

import bisect
import operator

from .clause import _FOCUS, _RHEME, _THEME, _V2, Category, ClauseSpec, Tag, _all_words, _Value, _violations
from .lexicon import Lexicon
from .slots import KEY_TAGS, SlotTable, _lexical_veto, _signature, build_slot_table

#: An assignment maps constituent ids to their information-structure tag.
TagAssignment = dict[str, Tag]

#: The input ordinal of a forward key, appended last.
_ordinal = operator.itemgetter(3)

#: The most constituents :func:`enumerate_orders` takes; analysis has no cap.
MAX_SEARCH_CONSTITUENTS = 10


class LinearizeError(Exception):
    pass


class CooccurrenceViolation(LinearizeError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InexpressibleTags(LinearizeError):
    """The assignment admits no surface order (e.g. a rhematic pronoun)."""


class NoVorfeld(LinearizeError):
    """No constituent can open the clause (degenerate V2 clause)."""


class SurfaceOrder(_Value):
    """A generated order; ``keys`` pairs each Mittelfeld id with its slot key, in surface order."""

    __slots__ = ("vorfeld", "rendered", "keys")

    def __init__(
        self,
        vorfeld: str | None,
        rendered: tuple[str, ...],
        keys: tuple[tuple[str, tuple[int, int, int, int]], ...],
    ):
        _set_vorfeld(self, vorfeld)
        _set_rendered(self, rendered)
        _set_keys(self, keys)

    @property
    def mittelfeld(self) -> tuple[str, ...]:
        return tuple([cid for cid, _ in self.keys])

    @property
    def order(self) -> tuple[str, ...]:
        """Constituent ids in surface order, Vorfeld first."""
        if self.vorfeld is None:
            return self.mittelfeld
        return (self.vorfeld,) + self.mittelfeld

    @property
    def text(self) -> str:
        return " ".join(self.rendered)


_set_vorfeld = SurfaceOrder.vorfeld.__set__
_set_rendered = SurfaceOrder.rendered.__set__
_set_keys = SurfaceOrder.keys.__set__


def _frame(clause) -> tuple[list, list]:
    """The clause frame: the ``(owner, tokens)`` fields before and after the Mittelfeld.

    The owner is ``"V"`` for verb material, ``"C"`` for the complementizer.
    In V2 the finite verb follows the Vorfeld; in VF the complementizer opens
    the clause and the non-finite verbs precede the finite one at its end.
    Empty fields are dropped: only the non-finite verbs may be empty.
    """
    verb = clause.verb
    after = [("V", verb.nonfinite)] if verb.nonfinite else []
    if clause.clause_type is _V2:
        return [("V", verb.finite)], after
    after.append(("V", verb.finite))
    return [("C", (clause.complementizer,))] if clause.complementizer else [], after


def _fields(clause, ordered) -> list:
    """The fields in surface order: ``(c, c.surface)`` for each of ``ordered`` (Vorfeld first) in the frame."""
    before, after = _frame(clause)
    fields = [(c, c.surface) for c in ordered]
    vorfeld = 1 if clause.clause_type is _V2 else 0
    return fields[:vorfeld] + before + fields[vorfeld:] + after


def _surface(spec: ClauseSpec, frame, vorfeld: int | None, keys, focus: int | None) -> SurfaceOrder:
    """The surface of a Vorfeld ordinal (None in VF) and sorted Mittelfeld keys.

    Rendered straight from the untagged constituents' tokens: the Vorfeld,
    the fields of the clause's :func:`_frame` before the Mittelfeld, the
    Mittelfeld, the fields after it.  The ``focus`` ordinal is in caps and
    the first token of a V2 clause capitalized.
    """
    cs, (before, after) = spec.constituents, frame
    tokens: list[str] = []
    if vorfeld is not None:
        tokens += [tok.upper() for tok in cs[vorfeld].surface] if vorfeld == focus else cs[vorfeld].surface
    for _, field in before:
        tokens += field
    pairs = []
    for key in keys:
        c = cs[key[3]]
        pairs.append((c.id, key))
        tokens += [tok.upper() for tok in c.surface] if key[3] == focus else c.surface
    for _, field in after:
        tokens += field
    if spec.clause_type is _V2:
        tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    return SurfaceOrder(None if vorfeld is None else cs[vorfeld].id, tuple(tokens), tuple(pairs))


def _carriers(clause: CompiledClause, tags: TagAssignment):
    """Input ordinals of a well-formed assignment's theme, rheme and focus (None if absent)."""
    theme = rheme = focus = None
    for cid, tag in tags.items():  # every value is a Tag member, each at most once
        if tag is _THEME:
            theme = clause.ordinals[cid]
        elif tag is _RHEME:
            rheme = clause.ordinals[cid]
        else:
            focus = clause.ordinals[cid]
    return theme, rheme, focus


def _tag_pairs(ids, carriers: tuple[int | None, int | None, int | None]) -> tuple[tuple[str, Tag], ...]:
    """An assignment's sorted ``(id, tag)`` pairs, from its ``(theme, rheme, focus)`` ordinals in ``ids``."""
    theme, rheme, focus = carriers
    pairs = [] if theme is None else [(ids[theme], _THEME)]
    if rheme is not None:
        pairs.append((ids[rheme], _RHEME))
    if focus is not None:
        pairs.append((ids[focus], _FOCUS))
    pairs.sort()
    return tuple(pairs)


def linearize(
    spec: ClauseSpec,
    tags: TagAssignment,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> SurfaceOrder:
    """Deterministic surface order for the clause under the assignment.

    V2: the Vorfeld pick is removed, the rest is sorted by slot key and the
    finite verb lands in second position.  VF: everything sorts into the
    Mittelfeld (a theme lands in the early theme slot) before the clause-final
    verb cluster.  Every element takes its first key (the early focus slot,
    for a focus), with its input ordinal appended to break ties.
    """
    table = table or build_slot_table()
    clause = CompiledClause(spec, tags, lex, table)
    if clause.assignment_violations:
        raise ValueError("invalid assignment: " + "; ".join(clause.assignment_violations))
    theme, rheme, focus = _carriers(clause, tags)
    if theme is not None and clause.typically_rhematic[theme]:
        raise InexpressibleTags(
            f"{spec.constituents[theme].id} defaults to the late field and cannot be thematic; "
            "it opens the clause only under contrastive focus"
        )
    vorfeld = None
    if clause.v2:
        vorfeld = clause.vorfeld_pick(theme, rheme, focus)
        if vorfeld is None:
            raise NoVorfeld("no Vorfeld-capable constituent")
        if theme is not None and theme != vorfeld:
            raise InexpressibleTags(
                f"theme {spec.constituents[theme].id} cannot occupy the Vorfeld and V2 clauses "
                "admit no Mittelfeld theme"
            )
    mittelfeld = []
    for i, row in enumerate(clause.keys):
        if i == vorfeld:
            continue
        column = 1 if i == theme else 2 if i == rheme else 3 if i == focus else 0
        if row[column] is None:
            tag = KEY_TAGS[column]
            veto = _lexical_veto(tag, clause.entries[i])
            reason = f" ({veto})" if veto else ""
            raise InexpressibleTags(f"no slot for {spec.constituents[i].id} as {tag.value}{reason}")
        mittelfeld.append((*row[column][0], i))
    mittelfeld.sort()
    return _surface(spec, _frame(spec), vorfeld, mittelfeld, focus)


def realizations(
    spec: ClauseSpec,
    tags: TagAssignment,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> list[SurfaceOrder]:
    """All surface orders the assignment licenses: the realization relation.

    Beyond the canonical :func:`linearize` output this admits, for V2 clauses
    without a theme, fronting the focused constituent into the Vorfeld, and
    for a focused constituent that also fits the late focus slot, the
    right-field placement.  Returns an empty list when the tags are
    inexpressible or malformed; raises for invalid specs (lexicon defects
    included) and cooccurrence violations.  The relation is
    :meth:`CompiledClause.realize`.
    """
    clause = CompiledClause(spec, tags, lex, table or build_slot_table())
    if clause.assignment_violations:
        return []
    theme, rheme, focus = _carriers(clause, tags)
    frame, grouped = _frame(spec), clause.realize([theme], [rheme], [focus])
    return [_surface(spec, frame, vorfeld, keys, focus) for vorfeld, keys, focus, _ in grouped.values()]


class CompiledClause:
    """An untagged clause, validated once, with its slot keys precomputed.

    The clause is a :class:`ClauseSpec`; its constituent order is the input
    order, and its stress marks are not read.  ``keys[i][j]`` holds every
    slot key the constituent with input ordinal ``i`` can occupy under
    ``KEY_TAGS[j]``, in table order, as plain ``(slot, sub_rank, hoberg)``
    tuples, or None where that tagging has no slot or the lexicon vetoes it.
    They hold no input ordinal: generation appends it where it sorts, to
    break ties, and analysis compares adjacent keys in observed order, where
    a tie is in order.  Untagged, THEME and RHEME placements are unique; a
    focus that fits both the early and the general focus slot has both keys,
    the later one being the marked right-field realization.  ``entries[i]``
    is its lexicon entry (None without a key).  With ``v2`` (the clause type,
    decided once) and ``typically_rhematic`` they are all that generation,
    enumeration, analysis and disambiguation read, besides two rules that
    are stated here and nowhere else: the theme rule (:meth:`admits_theme`)
    and the V2 Vorfeld rule (:meth:`vorfeld_pick`, :meth:`_vorfelds`), the
    only readers of ``vorfeld_capable`` and ``subject``.  Analysis reads the
    keys in one walk over the input order and asks the Vorfeld rule about
    the Vorfeld only.  Assignments are given as input ordinals of the theme,
    rheme and focus carriers, None for an absent tag; ``ordinals`` maps each
    constituent id to its input ordinal, in input order.

    Compiling is one loop over the constituents, reading each field once:
    one dict lookup in the table's signature index (its keys,
    typically-rhematic flag, cooccurrence group and signature defects), with
    ``slots._signature`` called only on a miss, plus the constituent's own
    checks (an empty or duplicate id, surface tokens, lexicon entry), then
    the clause-level ``clause._violations``.
    An invalid clause raises :class:`CooccurrenceViolation` or
    ``ValueError``; ``tags`` counts there as the focus, so two FOCUS
    carriers are a cooccurrence violation, and a constituent without an
    untagged slot (an SVC part of a category the SVC slot does not hold)
    makes the clause invalid too.  A key column is None only where the
    entry vetoes its tag.  The assignment's own defects (unknown ids, a value
    that is not a tag, two carriers of one tag) are kept in
    ``assignment_violations`` for the caller to refuse.  Every lexicon key is
    resolved here, once, and nowhere else: a key that is not a string or
    resolves to nothing, or a valid ``hoberg_index`` that contradicts its
    entry's class, makes the clause invalid, whatever the assignment.
    """

    __slots__ = (
        "v2", "keys", "entries", "vorfeld_capable", "typically_rhematic", "subject",
        "assignment_violations", "ordinals",
    )

    def __init__(
        self,
        spec: ClauseSpec,
        tags: TagAssignment,
        lex: Lexicon,
        table: SlotTable,
    ):
        ordinals, invalid, unplaced, groups = {}, [], [], ([], [])
        keys, rhematic, entries, capable = [], [], [], []
        index, get = table._index, lex.get
        for i, c in enumerate(spec.constituents):
            cid, surface, f, hoberg = c.id, c.surface, c.features, c.hoberg_index
            category, key = c.category, c.lexicon_key
            if not isinstance(cid, str):  # every message names the id, and ``ordinals`` hashes it
                raise ValueError(f"invalid clause spec: constituent id {cid!r} is not a string")
            if cid in ordinals:
                invalid.append(f"duplicate constituent id {cid!r}")
            elif not cid:
                invalid.append("empty constituent id")
            ordinals[cid] = i
            if not surface:
                invalid.append(f"{cid}: empty surface")
            elif not _all_words(surface):
                invalid.append(f"{cid}: blank or non-string surface token")
            facts = signature = None
            if category.__class__ is Category:  # else refused before the index is read
                signature = (category, f.definite, f.animate, f.pronominal, f.svc, hoberg, hoberg.__class__)
                try:
                    facts = index.get(signature)
                except TypeError:  # an unhashable Hoberg index, never filed
                    signature = None
            defects, placements, typically_rhematic, group = facts or _signature(table, c, signature)
            if defects:
                invalid += [f"{cid}: {defect}" for defect in defects]
            elif placements[0] is None:
                unplaced.append(f"{cid}: no untagged slot")
            if group is not None:
                groups[group].append(i)
            entry = None
            if key is not None:
                if not isinstance(key, str):
                    invalid.append(f"{cid}: lexicon_key {key!r} is not a string")
                elif (entry := get(key)) is None:
                    invalid.append(f"{cid}: lexicon has no reading {key!r} (lemma {key.split('#', 1)[0]!r})")
                elif placements is not None:  # else the signature's defects refuse its Hoberg index
                    if hoberg is not None and hoberg != entry.hoberg_index:
                        invalid.append(
                            f"{cid}: hoberg_index {hoberg} contradicts {entry.key} (class {entry.hoberg_index})"
                        )
                    elif not (entry.rhematic and entry.focusable):
                        untagged, theme, rheme, focus = placements
                        rheme, focus = rheme if entry.rhematic else None, focus if entry.focusable else None
                        placements = untagged, theme, rheme, focus
            keys.append(placements)
            rhematic.append(typically_rhematic)
            entries.append(entry)
            capable.append(entry is None or entry.vorfeld_capable)
        cooccurrence, clause_invalid, self.assignment_violations = _violations(spec, tags, ordinals, *groups)
        if cooccurrence:
            raise CooccurrenceViolation(cooccurrence)
        for violations in (clause_invalid + invalid, unplaced):  # no untagged slot: a spec defect too
            if violations:
                raise ValueError("invalid clause spec: " + "; ".join(violations))
        self.v2, self.ordinals = spec.clause_type is _V2, ordinals
        self.keys = tuple(keys)
        self.entries = tuple(entries)
        self.vorfeld_capable = tuple(capable)
        self.typically_rhematic = tuple(rhematic)
        self.subject = groups[0][0] if groups[0] else None

    def admits_theme(self, i: int) -> bool:
        """The theme rule: the constituent with ordinal ``i`` can carry THEME.

        Never a typically rhematic element; in V2 the theme opens the clause,
        so it must be Vorfeld-capable, and in VF it needs a THEME slot.
        """
        return not self.typically_rhematic[i] and (self.vorfeld_capable[i] if self.v2 else self.keys[i][1] is not None)

    def vorfeld_pick(self, theme: int | None, rheme: int | None, focus: int | None) -> int | None:
        """The V2 Vorfeld rule: theme, else subject, else first capable element.

        A theme the theme rule refuses (:meth:`admits_theme`) falls through
        to the subject; a rheme never opens the clause.  Among the other
        Vorfeld-capable elements with a slot for their tag, the one with the
        lowest key (the first of equal keys) opens.  None when nothing can.
        """
        if theme is not None and self.admits_theme(theme):
            return theme
        if self.subject is not None and self.subject != rheme:
            return self.subject
        best = pick = None
        for i, row in enumerate(self.keys):
            keys = row[3] if i == focus else row[0]
            if i == rheme or not self.vorfeld_capable[i] or keys is None:
                continue
            if best is None or keys[0] < best:
                best, pick = keys[0], i
        return pick

    def _vorfelds(self, theme: int | None, rheme: int | None, focus: int | None) -> list[int | None]:
        """The assignment's Vorfeld candidates in order; ``[None]`` in VF.

        In V2 a theme must open the clause, if :meth:`admits_theme`.  Without
        a theme the :meth:`vorfeld_pick` comes first, then the focus carrier
        (marked focus fronting).
        """
        if not self.v2:
            return [None]
        if theme is not None:
            return [theme] if self.admits_theme(theme) else []
        pick = self.vorfeld_pick(None, rheme, focus)
        vorfelds = [] if pick is None else [pick]
        if focus is not None and focus != pick and self.vorfeld_capable[focus]:
            vorfelds.append(focus)
        return vorfelds

    def realize(self, themes, rhemes, focuses) -> dict[tuple, list]:
        """Every order the candidate carriers license: ``order -> [vorfeld, keys, focus, carriers]``.

        The realization relation run forwards over every assignment of the
        candidate ordinals (None for an absent tag), nested theme, rheme,
        focus in the candidates' order; no constituent carries two tags.
        ``order`` is the Vorfeld's ordinal (None in VF), then the
        Mittelfeld's; the orders come in order of first appearance, each with
        the ``(theme, rheme, focus)`` ``carriers`` that realize it, in search
        order, and with the surface of its first focus-free carriers, if any,
        else of its first: the Vorfeld, the sorted Mittelfeld keys (the
        ordinal appended, as in ``SurfaceOrder.keys``) and the focus.  The
        untagged keys are sorted once per call.  Each theme and rheme pair
        swaps its carriers' tagged keys into one copy (a V2 theme, the
        Vorfeld, leaves it), which every focus shares.  Per focus and Vorfeld
        candidate (:meth:`_vorfelds`), the Vorfeld leaves a copy and the focus
        takes each of its FOCUS keys in turn; a second key that gives the
        same order is dropped.  A theme the theme rule refuses, or a carrier
        outside the Vorfeld without a slot for its tag, licenses nothing.
        """
        keys = [[None if k is None else [(*key, i) for key in k] for k in row] for i, row in enumerate(self.keys)]
        untagged = sorted([row[0][0] for row in keys])
        v2, grouped = self.v2, {}
        for theme in themes:
            themed = untagged
            if theme is not None:
                if not self.admits_theme(theme):
                    continue
                themed = untagged.copy()
                del themed[bisect.bisect_left(themed, keys[theme][0][0])]
                if not v2:
                    bisect.insort(themed, keys[theme][1][0])
            for rheme in rhemes:
                shared = themed
                if rheme is not None:
                    placed = keys[rheme][2]
                    if rheme == theme or placed is None:
                        continue
                    shared = themed.copy()
                    del shared[bisect.bisect_left(shared, keys[rheme][0][0])]
                    bisect.insort(shared, placed[0])
                # The Vorfeld does not depend on the focus in VF, or when a V2 theme opens.
                fixed = self._vorfelds(theme, rheme, None) if not v2 or theme is not None else None
                for focus in focuses:
                    if focus is not None and focus in (theme, rheme):
                        continue
                    carriers = theme, rheme, focus
                    for vorfeld in fixed or self._vorfelds(theme, rheme, focus):
                        mittelfeld = shared
                        if vorfeld is not None and vorfeld != theme:
                            mittelfeld = shared.copy()
                            del mittelfeld[bisect.bisect_left(mittelfeld, keys[vorfeld][0][0])]
                        placed = (None,) if focus is None or focus == vorfeld else keys[focus][3]
                        if placed is None:
                            continue
                        if placed[0] is not None:  # the focus's untagged key gives way to each FOCUS key
                            unfocused = mittelfeld.copy() if mittelfeld is shared else mittelfeld
                            del unfocused[bisect.bisect_left(unfocused, keys[focus][0][0])]
                        for key in placed:
                            if key is not None:
                                mittelfeld = unfocused if key is placed[-1] else unfocused.copy()
                                bisect.insort(mittelfeld, key)
                            order = (vorfeld, *map(_ordinal, mittelfeld))
                            group = grouped.get(order)
                            if group is None:
                                grouped[order] = [vorfeld, mittelfeld, focus, [carriers]]
                            elif group[3][-1] is not carriers:  # else a second FOCUS key gave the same order
                                if focus is None and group[2] is not None:
                                    group[1], group[2] = mittelfeld, None
                                group[3].append(carriers)
        return grouped


class OrderVariant(_Value):
    """One distinct surface order with every assignment that realizes it."""

    __slots__ = ("surface", "assignments")

    def __init__(self, surface: SurfaceOrder, assignments: tuple[tuple[tuple[str, Tag], ...], ...]):
        _set_surface(self, surface)
        _set_assignments(self, assignments)

    @property
    def vorfeld(self) -> str | None:
        return self.surface.vorfeld

    @property
    def order(self) -> tuple[str, ...]:
        """Constituent ids in surface order, Vorfeld first."""
        return self.surface.order


_set_surface = OrderVariant.surface.__set__
_set_assignments = OrderVariant.assignments.__set__


def _live_carriers(clause: CompiledClause):
    """Per tag, None and then the ordinals whose carrying it may license an order.

    Read off :meth:`CompiledClause.realize`, so every carrier left out
    realizes nothing.  It asks the compiled clause's two rules, which are
    stated nowhere else: a theme must pass :meth:`CompiledClause.admits_theme`.
    A rheme never opens the clause, so it needs a RHEME slot.  A focus needs
    a FOCUS slot unless the Vorfeld rule (:meth:`CompiledClause._vorfelds`)
    lets it open the clause as the only carrier, which it never does in VF.
    """
    ordinals = range(len(clause.keys))
    themes = [i for i in ordinals if clause.admits_theme(i)]
    rhemes = [i for i in ordinals if clause.keys[i][2] is not None]
    focuses = [i for i in ordinals if clause.keys[i][3] is not None or i in clause._vorfelds(None, None, i)]
    return [None, *themes], [None, *rhemes], [None, *focuses]


def enumerate_orders(
    spec: ClauseSpec,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> tuple[OrderVariant, ...]:
    """All realizable orders of the clause, grouped by surface order.

    Exhaustive over tag assignments within cardinality limits and lexical
    flags, ordered by theme, then rheme, then focus carrier, each in input
    order and an absent tag first; assignments without a realization are
    skipped.  The clause is compiled once, carriers that can license nothing
    under their tag are left out, and one :meth:`CompiledClause.realize` run
    groups the remaining assignments by order.  A variant's surface is that
    of its first focus-free assignment, if it has one (no focus caps), and is
    rendered once, after the search.  The output grows with the assignments,
    so a clause is capped at ``MAX_SEARCH_CONSTITUENTS`` constituents.
    """
    n = len(spec.constituents)
    if n > MAX_SEARCH_CONSTITUENTS:
        raise ValueError(f"clause has {n} constituents; exhaustive search is capped at {MAX_SEARCH_CONSTITUENTS}")
    clause = CompiledClause(spec, {}, lex, table or build_slot_table())
    ids, frame = [c.id for c in spec.constituents], _frame(spec)
    return tuple([
        OrderVariant(_surface(spec, frame, vorfeld, keys, focus), tuple([_tag_pairs(ids, c) for c in carriers]))
        for vorfeld, keys, focus, carriers in clause.realize(*_live_carriers(clause)).values()
    ])
