"""Differential test: ``analyze`` against the pipeline that ran before it read the compiled clause.

``reference_analyze`` (in ``tests/oracle.py``) is the earlier ``analyze``:
explanations from the generate-and-test search, focus, theme and rheme from
the recognizers as they stood before ``analyze`` read them off the compiled
clause (with the rheme's own lexicon lookup), then the direct focus
detectors, which re-key every constituent with the oracle's own slot-table
reader and look its lexicon key up again.  The engine must return an equal
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

from wortfolge import analyze

from .oracle import outcome, reference_analyze, unusable_stress
from .strategies import _LEX, observation


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_analyze_matches_reference_pipeline(seed):
    obs = observation(seed)
    got = outcome(analyze, obs, _LEX)
    unstressed = outcome(analyze, obs._replace(stress=frozenset()), _LEX)
    if unusable_stress(obs) and unstressed[0] == "raised":
        assert got == unstressed
    else:
        assert got == outcome(reference_analyze, obs, _LEX)
    if got[0] == "returned":
        # The detectors read only the clause, never its stress marks.
        assert unstressed[1].detected_focus == got[1].detected_focus
