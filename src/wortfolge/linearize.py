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
once, with its Vorfeld rule (:meth:`CompiledClause.vorfeld_pick`), then used
forwards (:func:`linearize` takes each element's first key;
:meth:`CompiledClause.realize`, behind :func:`realizations` and
:func:`enumerate_orders`, takes every key) and backwards, by the analyzer's
one walk over a given order, which compares only adjacent keys.
Every direction compiles alike, one signature-index lookup per constituent;
only the forward sorts append the input ordinal, to break ties.  An
assignment moves at most three constituents away from the untagged order,
so :meth:`CompiledClause.realize` sorts the untagged keys once per clause
and, per Vorfeld candidate, swaps in only the carriers' tagged keys.
:func:`enumerate_orders` leaves out carriers that can license nothing under
their tag and renders each distinct order once.
"""

from __future__ import annotations

import bisect

from .clause import ClauseSpec, ClauseType, Constituent, Tag, _all_words, _set, _Value, _violations
from .lexicon import Lexicon
from .slots import KEY_TAGS, SlotTable, _lexical_veto, _signature, build_slot_table

#: An assignment maps constituent ids to their information-structure tag.
TagAssignment = dict[str, Tag]

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
        _set(self, "vorfeld", vorfeld)
        _set(self, "rendered", rendered)
        _set(self, "keys", keys)

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


def _fields(clause, ordered) -> list:
    """The clause frame: the topological fields of a clause in surface order.

    ``ordered`` holds the constituents of ``clause`` in surface order,
    Vorfeld first.  Each field is an
    ``(owner, tokens)`` pair; the owner is the constituent itself, or ``"V"``
    for verb material and ``"C"`` for the complementizer.  In V2 the first
    constituent opens the clause and the finite verb follows it; in VF the
    complementizer opens the clause and the non-finite verbs precede the
    finite one at its end.  Empty fields are dropped: validation leaves only
    the non-finite verbs possibly empty.
    """
    verb = clause.verb
    fields = [(c, c.surface) for c in ordered]
    if clause.clause_type is ClauseType.V2:
        fields.insert(1, ("V", verb.finite))
    elif clause.complementizer:
        fields.insert(0, ("C", (clause.complementizer,)))
    if verb.nonfinite:
        fields.append(("V", verb.nonfinite))
    if clause.clause_type is ClauseType.VF:
        fields.append(("V", verb.finite))
    return fields


def _render(spec: ClauseSpec, ordered: list[Constituent], focus: Constituent | None) -> tuple[str, ...]:
    """The clause's tokens: :func:`_fields` flattened, the ``focus`` in caps
    and the first token of a V2 clause capitalized."""
    tokens: list[str] = []
    for owner, field in _fields(spec, ordered):
        tokens += [tok.upper() for tok in field] if owner is focus else field
    if spec.clause_type is ClauseType.V2:
        tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    return tuple(tokens)


def _surface(spec: ClauseSpec, vorfeld: int | None, keys, focus: int | None) -> SurfaceOrder:
    """The surface of a Vorfeld ordinal (None in VF) and sorted Mittelfeld keys.

    Rendered from the untagged clause; the ``focus`` ordinal is rendered in caps.
    """
    cs = spec.constituents
    ordered = [cs[key[3]] for key in keys]
    opener = [] if vorfeld is None else [cs[vorfeld]]
    return SurfaceOrder(
        vorfeld=None if vorfeld is None else cs[vorfeld].id,
        rendered=_render(spec, opener + ordered, None if focus is None else cs[focus]),
        keys=tuple(zip([c.id for c in ordered], keys)),
    )


def _carriers(clause: CompiledClause, tags: TagAssignment):
    """Input ordinals of a well-formed assignment's theme, rheme and focus (None if absent)."""
    carriers = {tag: clause.ordinals[cid] for cid, tag in tags.items()}
    return carriers.get(Tag.THEME), carriers.get(Tag.RHEME), carriers.get(Tag.FOCUS)


def _tag_pairs(ids, theme: int | None, rheme: int | None, focus: int | None) -> tuple[tuple[str, Tag], ...]:
    """An assignment's sorted ``(id, tag)`` pairs, from its carriers' ordinals in ``ids``."""
    pairs = [] if theme is None else [(ids[theme], Tag.THEME)]
    if rheme is not None:
        pairs.append((ids[rheme], Tag.RHEME))
    if focus is not None:
        pairs.append((ids[focus], Tag.FOCUS))
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
    if spec.clause_type is ClauseType.V2:
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
    return _surface(spec, vorfeld, mittelfeld, focus)


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
    return [_surface(spec, order[0], keys, focus) for order, keys in clause.realize(theme, rheme, focus)]


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
    is its lexicon entry (None without a key).  With ``vorfeld_capable``,
    ``typically_rhematic`` and ``subject`` they are all that generation,
    enumeration, analysis and disambiguation read.  Analysis reads the keys
    in one walk over the input order and runs the Vorfeld rule only on the
    assignments that survive it.  Assignments are given as input ordinals of
    the theme, rheme and focus carriers, None for an absent tag;
    ``ordinals`` maps each constituent id to its input ordinal.

    Compiling is one pass over the constituents: a lookup in the table's
    signature index (its keys, typically-rhematic flag, cooccurrence group
    and signature defects) plus the constituent's own checks (duplicate id,
    surface tokens, lexicon entry), then the clause-level
    ``clause._violations``.
    An invalid clause raises :class:`CooccurrenceViolation` or
    ``ValueError``; ``tags`` counts there as the focus, so two FOCUS
    carriers are a cooccurrence violation, and a constituent without an
    untagged slot (an SVC part of a category the SVC slot does not hold)
    makes the clause invalid too.  A key column is None only where the
    entry vetoes its tag.  The assignment's own defects (unknown ids, a value
    that is not a tag, two carriers of one tag) are kept in
    ``assignment_violations`` for the caller to refuse.  Every lexicon key is resolved here, once, and
    nowhere else: an unresolved key, or a valid ``hoberg_index`` that
    contradicts its entry's class, makes the clause invalid, whatever the
    assignment.
    """

    __slots__ = (
        "clause_type", "keys", "entries", "vorfeld_capable", "typically_rhematic", "subject",
        "assignment_violations", "ordinals", "_forward",
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
        for i, c in enumerate(spec.constituents):
            if c.id in ordinals:
                invalid.append(f"duplicate constituent id {c.id!r}")
            ordinals[c.id] = i
            if not c.surface:
                invalid.append(f"{c.id}: empty surface")
            elif not _all_words(c.surface):
                invalid.append(f"{c.id}: blank or non-string surface token")
            defects, placements, typically_rhematic, group = _signature(table, c)
            if defects:
                invalid += [f"{c.id}: {defect}" for defect in defects]
            elif placements[0] is None:
                unplaced.append(f"{c.id}: no untagged slot")
            if group is not None:
                groups[group].append(i)
            entry = None
            if c.lexicon_key is not None:
                entry = lex.get(c.lexicon_key)
                if entry is None:
                    lemma = str(c.lexicon_key).split("#", 1)[0]
                    invalid.append(f"{c.id}: lexicon has no reading {c.lexicon_key!r} (lemma {lemma!r})")
                elif placements is not None:  # else the signature's defects refuse its Hoberg index
                    if c.hoberg_index is not None and c.hoberg_index != entry.hoberg_index:
                        invalid.append(
                            f"{c.id}: hoberg_index {c.hoberg_index} contradicts {entry.key} "
                            f"(class {entry.hoberg_index})"
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
        self.clause_type, self.ordinals = spec.clause_type, ordinals
        self.keys = tuple(keys)
        self.entries = tuple(entries)
        self.vorfeld_capable = tuple(capable)
        self.typically_rhematic = tuple(rhematic)
        self.subject = groups[0][0] if groups[0] else None
        # The keys with input ordinals, and the untagged ones sorted: built on the first realize.
        self._forward = None

    def vorfeld_pick(self, theme: int | None, rheme: int | None, focus: int | None) -> int | None:
        """The V2 Vorfeld rule: theme, else subject, else first capable element.

        A theme that cannot open the clause (lexically Vorfeld-incapable)
        falls through to the subject; a rheme never opens the clause.  Among
        the other Vorfeld-capable elements with a slot for their tag, the one
        with the lowest key (the first of equal keys) opens.  None when
        nothing can.
        """
        if theme is not None and self.vorfeld_capable[theme]:
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

        In V2 a theme must open the clause, if it can.  Without a theme the
        :meth:`vorfeld_pick` comes first, then the focus carrier (marked focus
        fronting).
        """
        if self.clause_type is not ClauseType.V2:
            return [None]
        if theme is not None:
            return [theme] if self.vorfeld_capable[theme] else []
        pick = self.vorfeld_pick(None, rheme, focus)
        vorfelds = [] if pick is None else [pick]
        if focus is not None and focus != pick and self.vorfeld_capable[focus]:
            vorfelds.append(focus)
        return vorfelds

    def realize(self, theme: int | None, rheme: int | None, focus: int | None):
        """Yield each ``(order, mittelfeld keys)`` the assignment licenses.

        The realization relation run forwards, by straight insertion.
        ``order`` is the Vorfeld's input ordinal (None in VF) followed by the
        Mittelfeld's, and the keys, with the ordinal appended as in
        ``SurfaceOrder.keys``, come sorted in that Mittelfeld order.  A
        typically rhematic theme licenses nothing.  The keys with ordinals,
        and the untagged ones sorted, are built once per clause.  A Vorfeld
        candidate is one pass over a copy of that list: the Vorfeld's key
        leaves, each carrier's untagged key is swapped for its first tagged
        one, and the candidate is skipped at a carrier with no slot for its
        tag.  Each later key of a focus (one per FOCUS slot it fits) takes
        its earlier key's place in a copy.  Repeated orders are dropped.
        """
        if theme is not None and self.typically_rhematic[theme]:
            return
        if self._forward is None:
            keys = [[None if k is None else tuple((*key, i) for key in k) for k in row]
                    for i, row in enumerate(self.keys)]
            self._forward = keys, sorted(row[0][0] for row in keys)
        keys, untagged = self._forward
        seen = set()
        for vorfeld in self._vorfelds(theme, rheme, focus):
            mittelfeld = untagged.copy()
            if vorfeld is not None:
                del mittelfeld[bisect.bisect_left(mittelfeld, keys[vorfeld][0][0])]
            placed = ()
            for i, j in ((theme, 1), (rheme, 2), (focus, 3)):
                if i is None or i == vorfeld:
                    continue
                placed = keys[i][j]
                if placed is None:
                    break
                del mittelfeld[bisect.bisect_left(mittelfeld, keys[i][0][0])]
                bisect.insort(mittelfeld, placed[0])
            else:
                # Only a focus, placed last, holds more than one key.
                for n in range(len(placed) or 1):
                    if n:
                        mittelfeld = mittelfeld.copy()
                        del mittelfeld[bisect.bisect_left(mittelfeld, placed[n - 1])]
                        bisect.insort(mittelfeld, placed[n])
                    order = (vorfeld, *[key[3] for key in mittelfeld])
                    if order not in seen:
                        seen.add(order)
                        yield order, mittelfeld


def iter_assignments(themes, rhemes, focuses):
    """Every tag assignment of the candidate carriers within the cardinality limits.

    Yields ``(theme, rheme, focus)`` carrier ordinals, None for an absent tag,
    in the nesting order of the candidates; no constituent carries two tags.
    """
    for theme in themes:
        for rheme in rhemes:
            if rheme is not None and rheme == theme:
                continue
            for focus in focuses:
                if focus is None or focus not in (theme, rheme):
                    yield theme, rheme, focus


class OrderVariant(_Value):
    """One distinct surface order with every assignment that realizes it."""

    __slots__ = ("surface", "assignments")

    def __init__(self, surface: SurfaceOrder, assignments: tuple[tuple[tuple[str, Tag], ...], ...]):
        _set(self, "surface", surface)
        _set(self, "assignments", assignments)

    @property
    def vorfeld(self) -> str | None:
        return self.surface.vorfeld

    @property
    def order(self) -> tuple[str, ...]:
        """Constituent ids in surface order, Vorfeld first."""
        return self.surface.order


def _live_carriers(clause: CompiledClause):
    """Per tag, None and then the ordinals whose carrying it may license an order.

    Read off :meth:`CompiledClause.realize`, so every carrier left out
    realizes nothing.  A theme must not be typically rhematic; in V2 it must
    open the clause, in VF it needs a THEME slot.  A rheme never opens the
    clause, so it needs a RHEME slot.  A focus needs a FOCUS slot unless, in
    V2, it can stand in the Vorfeld: as a Vorfeld-capable element, or as the
    subject, which :meth:`CompiledClause.vorfeld_pick` picks without asking.
    """
    v2 = clause.clause_type is ClauseType.V2
    ordinals = range(len(clause.keys))
    themes = [
        i for i in ordinals
        if not clause.typically_rhematic[i] and (clause.vorfeld_capable[i] if v2 else clause.keys[i][1] is not None)
    ]
    rhemes = [i for i in ordinals if clause.keys[i][2] is not None]
    focuses = [
        i for i in ordinals
        if clause.keys[i][3] is not None or (v2 and (clause.vorfeld_capable[i] or i == clause.subject))
    ]
    return [None, *themes], [None, *rhemes], [None, *focuses]


def enumerate_orders(
    spec: ClauseSpec,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> tuple[OrderVariant, ...]:
    """All realizable orders of the clause, grouped by surface order.

    Exhaustive over tag assignments within cardinality limits and lexical
    flags, in :func:`iter_assignments` order; assignments without a
    realization are skipped.  The clause is compiled once, carriers that can
    license nothing under their tag are left out of the assignments, and
    every remaining assignment runs :meth:`CompiledClause.realize` on it.  A
    variant's surface is that of its first focus-free assignment, if it has
    one (no focus caps), and is rendered once, after the search.  The output
    grows with the assignments, so a clause is capped at
    ``MAX_SEARCH_CONSTITUENTS`` constituents.
    """
    n = len(spec.constituents)
    if n > MAX_SEARCH_CONSTITUENTS:
        raise ValueError(f"clause has {n} constituents; exhaustive search is capped at {MAX_SEARCH_CONSTITUENTS}")
    clause = CompiledClause(spec, {}, lex, table or build_slot_table())
    ids = [c.id for c in spec.constituents]
    # order -> [(vorfeld, keys, focus) of its surface, assignments]
    grouped: dict[tuple, list] = {}
    for theme, rheme, focus in iter_assignments(*_live_carriers(clause)):
        assignment = None
        for order, keys in clause.realize(theme, rheme, focus):
            if assignment is None:
                assignment = _tag_pairs(ids, theme, rheme, focus)
            group = grouped.get(order)
            if group is None:
                grouped[order] = [(order[0], keys, focus), [assignment]]
                continue
            if focus is None and group[0][2] is not None:
                group[0] = (order[0], keys, None)
            group[1].append(assignment)
    return tuple(OrderVariant(_surface(spec, *chosen), tuple(a)) for chosen, a in grouped.values())
