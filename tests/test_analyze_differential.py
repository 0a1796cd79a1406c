"""Differential test: ``analyze`` against the pipeline that ran before it read the compiled clause.

``reference_analyze`` is the earlier ``analyze``: explanations from the
generate-and-test search (``reference_explain_order``), then the direct focus
detectors, which re-key every constituent and look its lexicon key up again
(``reference_detect_focus_constructions``).  The engine must return an equal
``AnalysisResult``, or raise the same exception class with the same message.

One difference is intended.  The earlier pipeline never validated a clause
whose stress marks no assignment can carry (an unknown id, two ids); it
called such a clause UNGRAMMATICAL.  The engine now compiles the clause
first, so there it must raise exactly what it raises for the same clause
without stress.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from wortfolge import Category, ClauseType, Tag, analyze, detect_focus_constructions
from wortfolge.analyze import (
    AnalysisResult,
    StressWarning,
    Verdict,
    _inherently_non_rhematic,
    recognize_focus,
    recognize_rheme,
    recognize_theme,
)
from wortfolge.slots import NoSlotError, build_slot_table, sort_key

from .strategies import _LEX
from .test_enumerate_differential import _reference_vorfeld_capable, reference_typically_rhematic
from .test_explain_differential import _observation, _outcome, reference_explain_order


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
    focus, focus_options = recognize_focus(obs, lex, explanations)
    theme = recognize_theme(obs, focus_ids=focus_options)
    rheme = recognize_rheme(obs, lex)
    detected = reference_detect_focus_constructions(obs, lex, table)

    costs = [sum(1 for t in tags.values() if t is Tag.FOCUS) for tags in explanations]
    markedness_cost = min(costs) if costs else 0

    warning = None
    if (
        explanations
        and obs.clause_type is ClauseType.V2
        and obs.constituents
        and _inherently_non_rhematic(obs.constituents[-1], lex)
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
    unstressed = _outcome(analyze, replace(obs, stress=frozenset()))
    if _unusable_stress(obs) and unstressed[0] == "raised":
        assert got == unstressed
    else:
        assert got == _outcome(reference_analyze, obs)
    if got[0] == "returned":
        assert detect_focus_constructions(obs, _LEX) == got[1].detected_focus
