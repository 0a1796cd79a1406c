"""Analysis: recover focus, theme and rheme from an observed constituent order.

Focus is identified first (a sentence whose order is only derivable with a
focused constituent is contrastively stressed), then theme (the clause-initial
element unless it is the focus), then rheme (the final constituent unless it
is inherently non-rhematic: a personal pronoun or a lexically non-rhematic
modifier).  Verbs never participate: their placement is fixed and they are
never recognized as rhemes.

An order is grammatical iff some tag assignment realizes it, and marked iff
every such assignment involves focus.  Analysis runs the generator backwards
without generating: the clause is compiled once into the slot keys of every
constituent under every tag, and an assignment realizes the observed order iff
no linear-precedence statement is violated (the ID/LP reading of the slot
table): the theme rule admits its theme, in V2 the Vorfeld rule admits the
first element (both rules are :class:`CompiledClause`'s, asked, not restated,
here), and no Mittelfeld key falls below its predecessor's along the
observed order (equal keys tie; the table orders neither before the other).
Since that is a property of adjacent pairs, the assignments are found in one
left-to-right walk over the Mittelfeld that tags a constituent only where its
key still fits, starting from each tag the V2 Vorfeld may carry, so the cost
grows with the explanations found, not with the (n+1)^3 assignments.
Two marked constructions are additionally detected directly (a typically
rhematic element in the Vorfeld, and a pronoun to the right of a modifier);
the detections must agree with the key check and are reported alongside it.
The observed clause is a :class:`ClauseSpec` whose constituents stand in
surface order, with optional stress marks.  :func:`analyze` compiles it once
and reads the explanations, both detectors and the final constituent's
lexicon entry off that one :class:`CompiledClause`.
"""

from __future__ import annotations

from enum import Enum

from .clause import _FOCUS, _M, ClauseSpec, Tag, _set, _Value
from .lexicon import Lexicon
from .linearize import CompiledClause, TagAssignment, _tag_pairs
from .slots import SlotTable, build_slot_table


#: ``perfbench/inputs.py`` builds clauses under this name, positionally with
#: five arguments.  ROADMAP item 1 switches it to ``ClauseSpec`` and deletes
#: this line.
ObservedClause = ClauseSpec


class Verdict(str, Enum):
    GRAMMATICAL_UNMARKED = "GRAMMATICAL_UNMARKED"
    GRAMMATICAL_MARKED = "GRAMMATICAL_MARKED"
    UNGRAMMATICAL = "UNGRAMMATICAL"


_UNMARKED, _MARKED, _UNGRAMMATICAL = Verdict.GRAMMATICAL_UNMARKED, Verdict.GRAMMATICAL_MARKED, Verdict.UNGRAMMATICAL


class StressWarning(_Value):
    """A final inherently non-rhematic element: heavy stress is expected on
    the V2 verb or on the Vorfeld element (two candidates, unranked)."""

    __slots__ = ("verb_candidate", "vorfeld_candidate")

    def __init__(self, verb_candidate: str, vorfeld_candidate: str):
        _set(self, "verb_candidate", verb_candidate)
        _set(self, "vorfeld_candidate", vorfeld_candidate)


class AnalysisResult(_Value):
    __slots__ = (
        "verdict", "theme", "rheme", "focus", "focus_options", "explanations", "markedness_cost",
        "warning", "detected_focus",
    )

    def __init__(
        self,
        verdict: Verdict,
        theme: str | None,
        rheme: str | None,
        focus: str | None,
        focus_options: tuple[str, ...],
        explanations: tuple[tuple[tuple[str, Tag], ...], ...],
        markedness_cost: int,
        warning: StressWarning | None = None,
        detected_focus: tuple[str, ...] = (),
    ):
        _set_verdict(self, verdict)
        _set_theme(self, theme)
        _set_rheme(self, rheme)
        _set_focus(self, focus)
        _set_focus_options(self, focus_options)
        _set_explanations(self, explanations)
        _set_markedness_cost(self, markedness_cost)
        _set_warning(self, warning)
        _set_detected_focus(self, detected_focus)


_set_verdict = AnalysisResult.verdict.__set__
_set_theme = AnalysisResult.theme.__set__
_set_rheme = AnalysisResult.rheme.__set__
_set_focus = AnalysisResult.focus.__set__
_set_focus_options = AnalysisResult.focus_options.__set__
_set_explanations = AnalysisResult.explanations.__set__
_set_markedness_cost = AnalysisResult.markedness_cost.__set__
_set_warning = AnalysisResult.warning.__set__
_set_detected_focus = AnalysisResult.detected_focus.__set__


def _stress_focus(obs: ClauseSpec) -> TagAssignment | None:
    """The FOCUS the clause's stress marks fix: ``{}`` without marks, None
    for marks no assignment can carry (an unknown id, two ids)."""
    stress = obs.stress
    if not stress:
        return {}
    if len(stress) == 1 and next(iter(stress)) in obs.order:  # a tuple: never hashes an id
        return {next(iter(stress)): _FOCUS}
    return None


def _explanations(clause: CompiledClause, ids, fixed: TagAssignment) -> list[tuple[int | None, ...]]:
    """Every tag assignment whose realizations include the observed order ``ids``.

    One left-to-right walk over the observed order.  A branch is a prefix of
    an assignment with its last Mittelfeld key; at each position it goes on
    untagged, or under each unused tag the position has a slot for (a theme
    as :meth:`CompiledClause.admits_theme` admits it, in V2 never in the
    Mittelfeld), and it dies at the first key below its predecessor's, one
    test per tag.  A focus takes the first of its keys not below its
    predecessor's, which leaves the most room for the rest.  The walk starts
    after the V2 Vorfeld, never compared: tagged, it is settled there by
    asking the compiled clause's rules alone, as the Vorfeld rule then
    ignores the other carriers; untagged, the Vorfeld rule judges it at the
    end.  Assignments are ``(theme, rheme, focus)`` carrier triples of input
    ordinals, None for an absent tag, sorted by theme, rheme, then focus, an
    absent tag first, as enumeration lists them (sorted only when there are
    two or more); none: ungrammatical.  Stress marks are hard constraints: a
    non-empty ``fixed`` puts FOCUS exactly on the marked constituent.

    Worst case: a branch's tags, and so its keys, follow from its carriers,
    and a focus's key from its predecessor's, so at most one branch lives per
    carrier triple and focus key, O(n^3) per position.  Since no key may fall
    below its predecessor's, almost all of them die where they are grown, and
    the cost follows the explanations; there is no size cap.
    """
    v2 = clause.v2
    stressed = ids.index(next(iter(fixed))) if fixed else None
    # A branch is (previous Mittelfeld key, theme, rheme, focus).
    branches = [] if v2 and stressed == 0 else [((), None, None, None)]
    if v2 and ids:
        if stressed != 0 and clause.admits_theme(0):
            branches.append(((), 0, None, None))
        if stressed in (None, 0) and 0 in clause._vorfelds(None, None, 0):
            branches.append(((), None, None, 0))
    for i in range(1 if v2 else 0, len(ids)):
        untagged, theme_keys, rheme_keys, focus_keys = clause.keys[i]
        # Per tag, the key it gives position i, or a false value where it may not; a focus's keys in table order.
        free = i != stressed
        u, r = free and untagged[0], free and rheme_keys and rheme_keys[0]
        t = free and not v2 and clause.admits_theme(i) and theme_keys[0]
        focus_keys = focus_keys if stressed in (None, i) else None
        grown = []
        for prev, theme, rheme, focus in branches:
            if u and u >= prev:
                grown.append((u, theme, rheme, focus))
            if t and theme is None and t >= prev:
                grown.append((t, i, rheme, focus))
            if r and rheme is None and r >= prev:
                grown.append((r, theme, i, focus))
            if focus_keys and focus is None:
                for key in focus_keys:
                    if key >= prev:
                        grown.append((key, theme, rheme, i))
                        break
        branches = grown
    # A V2 theme is the Vorfeld or absent; an untagged Vorfeld must be the Vorfeld rule's pick.
    found = [b[1:] for b in branches if not v2 or b[1] == 0 or b[3] == 0 or clause.vorfeld_pick(None, *b[2:]) == 0]
    if len(found) > 1:
        found.sort(key=_carrier_order)
    return found


def _carrier_order(carriers: tuple[int | None, ...]) -> tuple[int, ...]:
    """Sort key of a ``(theme, rheme, focus)`` triple: an absent tag (None) first."""
    theme, rheme, focus = carriers
    return -1 if theme is None else theme, -1 if rheme is None else rheme, -1 if focus is None else focus


def _detections(clause: CompiledClause, obs: ClauseSpec, table: SlotTable) -> tuple[str, ...]:
    """Direct detectors for the order patterns that require contrastive stress.

    Read off the compiled clause: (a) the Vorfeld holds a typically rhematic
    element (directional/situative/expansive complements, late-field
    categories, indefinite objects) although the clause offers an unmarked
    opener; (b) an early-field pronoun stands to the right of a modifier,
    which such pronouns never do in unmarked orders.
    """
    keys, rhematic = clause.keys, clause.typically_rhematic
    hits: list[str] = []
    if clause.v2 and keys and rhematic[0]:
        # Fronting a late-field element is only marked when something else
        # would have opened the clause unmarked: a possible theme that no
        # tag can move out of the way (a rheme tag could).
        if any(clause.admits_theme(i) and keys[i][2] is None for i in range(1, len(keys))):
            hits.append(obs.constituents[0].id)
    # Pattern (b) concerns Mittelfeld order; the Vorfeld occupant is outside
    # it.  Only pronouns whose default slot precedes the modifier bands have
    # the leftward tendency the construction relies on, and rheme-capable
    # ones (genitive pronouns) can stand late without stress.
    start = 1 if clause.v2 else 0
    seen_modifier = False
    for i in range(start, len(keys)):
        c = obs.constituents[i]
        if c.category is _M:
            seen_modifier = True
        elif c.features.pronominal and seen_modifier:
            default = keys[i][0]
            if default is not None and default[0][0] < table.modifier_band_start and keys[i][2] is None:
                hits.append(c.id)
    return tuple(hits)


def analyze(
    obs: ClauseSpec,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> AnalysisResult:
    """Full pipeline: explanations, verdict, then focus, theme and rheme.

    Focus is obligatory when every explanation focuses the same constituent;
    when explanations disagree, ``focus`` is None and ``focus_options`` lists
    the candidates.  The clause is compiled once, whatever its stress marks,
    so an invalid clause raises even under marks no assignment can carry;
    such marks leave a valid clause without explanations (UNGRAMMATICAL).
    """
    return _analyze(obs, lex, table or build_slot_table())[1]


def _analyze(obs: ClauseSpec, lex: Lexicon, table: SlotTable) -> tuple[CompiledClause, AnalysisResult]:
    """:func:`analyze`, also returning the compiled clause it read everything off."""
    fixed = _stress_focus(obs)
    clause = CompiledClause(obs, fixed or {}, lex, table)
    ids = tuple(clause.ordinals)  # in input order: compiling refuses a duplicate id
    carriers = [] if fixed is None else _explanations(clause, ids, fixed)
    detected = _detections(clause, obs, table)

    focus_options = ()
    if carriers:
        # An assignment has at most one focus, so the order costs one focus iff every explanation has one.
        focused = {focus for _, _, focus in carriers}
        if None not in focused:
            focus_options = tuple(sorted([ids[i] for i in focused]))
    theme = rheme = warning = None
    if ids:
        last, entry = obs.constituents[-1], clause.entries[-1]
        if ids[0] not in focus_options:
            theme = ids[0]
        if not (last.features.pronominal or (entry is not None and not entry.rhematic)):
            rheme = ids[-1]
        # No rheme means the final constituent is inherently non-rhematic.
        elif carriers and clause.v2 and ids[-1] not in focus_options:
            warning = StressWarning(verb_candidate=" ".join(obs.verb.finite), vorfeld_candidate=ids[0])

    if not carriers:
        verdict = _UNGRAMMATICAL
    elif focus_options or warning is not None:
        verdict = _MARKED
    else:
        verdict = _UNMARKED

    focus = focus_options[0] if len(focus_options) == 1 else None
    explanations = tuple([_tag_pairs(ids, c) for c in carriers])
    return clause, AnalysisResult(
        verdict, theme, rheme, focus, focus_options, explanations, int(bool(focus_options)), warning, detected
    )
