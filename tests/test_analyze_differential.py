"""Differential test: ``analyze`` against the pipeline that ran before it read the compiled clause.

``reference_analyze`` is the earlier ``analyze``: explanations from the
generate-and-test search (``reference_explain_order``), focus, theme and rheme
from the recognizers as they stood before ``analyze`` read them off the
compiled clause (frozen below, with the rheme's own lexicon lookup), then the
direct focus detectors, which re-key every constituent and look its lexicon
key up again (``reference_detect_focus_constructions``).  The engine must return an equal
``AnalysisResult``, or raise the same exception class with the same message.

One difference is intended.  The earlier pipeline never validated a clause
whose stress marks no assignment can carry (an unknown id, two ids); it
called such a clause UNGRAMMATICAL.  The engine now compiles the clause
first, so there it must raise exactly what it raises for the same clause
without stress.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, ClauseType, Tag, analyze, detect_focus_constructions
from wortfolge.analyze import AnalysisResult, StressWarning, Verdict
from wortfolge.slots import NoSlotError, build_slot_table, sort_key

from .strategies import _LEX
from .test_enumerate_differential import _reference_vorfeld_capable, reference_typically_rhematic
from .test_explain_differential import _observation, _outcome, reference_explain_order


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
    """A pronoun or a lexically non-rhematic entry; an unresolved key raises ``KeyError``."""
    entry = None
    if c.lexicon_key is not None:
        entry = lex.get(c.lexicon_key)
        if entry is None:
            raise KeyError(f"unresolved lexicon key {c.lexicon_key!r} on {c.id}")
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
        except (NoSlotError, KeyError):
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


def _unusable_stress(obs):
    return bool(obs.stress) and not (len(obs.stress) == 1 and obs.stress <= set(obs.order))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_analyze_matches_reference_pipeline(seed):
    obs = _observation(seed)
    got = _outcome(analyze, obs)
    unstressed = _outcome(analyze, obs._replace(stress=frozenset()))
    if _unusable_stress(obs) and unstressed[0] == "raised":
        assert got == unstressed
    else:
        assert got == _outcome(reference_analyze, obs)
    if got[0] == "returned":
        assert detect_focus_constructions(obs, _LEX) == got[1].detected_focus
