import random
from collections import Counter

import pytest

from wortfolge import (
    ClauseSpec,
    ClauseType,
    Tag,
    Verdict,
    VerbComplex,
    analyze,
    enumerate_orders,
    linearize,
)

from .conftest import c, modifier
from .oracle import reference_explain_order
from .strategies import random_clause, sample_valid_pairs


# --- explanations ---------------------------------------------------------------

def test_default_order_explained_by_empty_assignment(ex2_clause, lex):
    explanations = analyze(
        ex2_clause.reordered(["er", "dennoch", "ebenfalls", "nach-muenchen"]), lex
    ).explanations
    assert () in explanations


def test_starred_modifier_order_has_no_explanation(ex2_clause, lex):
    assert analyze(
        ex2_clause.reordered(["er", "ebenfalls", "dennoch", "nach-muenchen"]), lex
    ).explanations == ()


def test_vorfeld_incapable_modifier_order_has_no_explanation(ex2_clause, lex):
    assert analyze(
        ex2_clause.reordered(["ebenfalls", "er", "dennoch", "nach-muenchen"]), lex
    ).explanations == ()


def test_focused_pronoun_reading_is_explained_with_obligatory_focus(ex1_clause, lex):
    # The derivable variant of the marked order: focused subject pronoun in
    # the early focus slot, after the unstressed object pronoun.
    explanations = analyze(
        ex1_clause.reordered(["morgen", "ihn", "ich", "vielleicht"]), lex
    ).explanations
    assert explanations
    assert all(dict(tags).get("ich") is Tag.FOCUS for tags in explanations)


def test_attested_late_pronoun_order_is_underivable(ex1_clause, lex):
    # The attested line puts the focused pronoun after the modifier; the
    # early-focus-slot transcription cannot derive it, with or without the
    # stress mark.
    plain = ex1_clause.reordered(["morgen", "ihn", "vielleicht", "ich"])
    stressed = ex1_clause.reordered(["morgen", "ihn", "vielleicht", "ich"], stress=["ich"])
    assert analyze(plain, lex).explanations == ()
    assert analyze(stressed, lex).explanations == ()
    # ... even though the direct construction detector flags the pronoun.
    assert analyze(stressed, lex).detected_focus == ("ich",)


def test_stress_marks_are_hard_constraints(ex8_clause, lex):
    # Stress on the wrong constituent kills the only explanation.
    wrong = ex8_clause.reordered(["nach-frankreich", "vahe"], stress=["vahe"])
    assert analyze(wrong, lex).explanations == ()
    right = ex8_clause.reordered(["nach-frankreich", "vahe"], stress=["nach-frankreich"])
    assert analyze(right, lex).explanations


def test_empty_v2_clause_has_no_explanation(lex):
    # Nothing can open the clause.  An empty VF clause is the empty assignment's order.
    v2 = analyze(ClauseSpec(ClauseType.V2, VerbComplex(("regnet",)), ()), lex)
    assert (v2.verdict, v2.explanations) == (Verdict.UNGRAMMATICAL, ())
    vf = analyze(ClauseSpec(ClauseType.VF, VerbComplex(("regnet",)), (), "weil"), lex)
    assert (vf.verdict, vf.explanations) == (Verdict.GRAMMATICAL_UNMARKED, ((),))


@pytest.fixture(scope="module")
def dennoch_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("kommt",)),
        (c("er", "N", "er", pron=True), modifier("dennoch", "dennoch", 20), modifier("morgen", "morgen", 26)),
    )


def test_stress_on_a_non_focusable_mittelfeld_modifier_is_ungrammatical(dennoch_clause, lex):
    # dennoch#20 has no FOCUS key, so the stress mark leaves no assignment.
    result = analyze(dennoch_clause.reordered(["er", "dennoch", "morgen"], stress=["dennoch"]), lex)
    assert (result.verdict, result.explanations) == (Verdict.UNGRAMMATICAL, ())


def test_stress_on_the_vorfeld_element_focuses_it(dennoch_clause, lex):
    # The Vorfeld is never compared: the stressed subject opens the clause as the focus.
    result = analyze(dennoch_clause.reordered(["er", "dennoch", "morgen"], stress=["er"]), lex)
    assert result.verdict is Verdict.GRAMMATICAL_MARKED
    assert result.focus == "er"
    assert result.explanations == (
        (("er", Tag.FOCUS),),
        (("er", Tag.FOCUS), ("morgen", Tag.RHEME)),
    )


#: Alike constituents: tied modifiers, prepositional objects, genitives.
_ALIKE = {
    "M": lambda i: modifier(f"c{i}", "gestern", 26),
    "PO": lambda i: c(f"c{i}", "PO", f"an x{i}", definite="+", animate="-"),
    "G": lambda i: c(f"c{i}", "G", f"x{i}", definite="+"),
}


def _alike_clause(kind, clause_type, n):
    complementizer = "weil" if clause_type is ClauseType.VF else None
    return ClauseSpec(clause_type, VerbComplex(("hat",)), tuple(_ALIKE[kind](i) for i in range(n)), complementizer)


@pytest.mark.parametrize("clause_type", [ClauseType.V2, ClauseType.VF])
@pytest.mark.parametrize("kind", sorted(_ALIKE))
def test_analysis_has_no_size_cap(lex, kind, clause_type):
    # The reference search checks six alike constituents; forty carry the same
    # tags at the same distance from either end of the clause.
    small = _alike_clause(kind, clause_type, 6)
    found = analyze(small, lex)
    assert tuple(dict(tags) for tags in found.explanations) == reference_explain_order(small, lex)

    def stretched(cid):
        i = int(cid[1:])
        return f"c{i if i < 3 else i + 34}"

    large = analyze(_alike_clause(kind, clause_type, 40), lex)
    assert large.explanations == tuple(
        tuple(sorted((stretched(cid), tag) for cid, tag in tags)) for tags in found.explanations
    )
    assert (large.verdict, large.markedness_cost) == (found.verdict, found.markedness_cost)


# --- focus recognition --------------------------------------------------------------

def test_directional_vorfeld_is_recognized_as_focus(ex8_clause, lex):
    result = analyze(ex8_clause.reordered(["nach-frankreich", "vahe"]), lex)
    assert result.focus == "nach-frankreich"
    assert result.detected_focus == ("nach-frankreich",)


def test_indefinite_object_vorfeld_is_recognized_as_focus(ex9_clause, lex):
    result = analyze(ex9_clause.reordered(["einen-inder", "anne"]), lex)
    assert result.focus == "einen-inder"
    assert result.detected_focus == ("einen-inder",)


def test_default_order_has_no_focus(ex5_clause, lex):
    result = analyze(ex5_clause.reordered(["ich", "den-mann", "gestern"]), lex)
    assert result.focus is None and result.focus_options == ()


# --- theme recognition ----------------------------------------------------------------

def test_initial_modifier_is_theme(lex):
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("lebte",)),
        (
            modifier("damals", "damals", 26),
            c("hendrix", "N", "Hendrix", definite="+", animate="+"),
            modifier("noch", "noch", 36),
        ),
    )
    result = analyze(spec.reordered(["damals", "hendrix", "noch"]), lex)
    assert result.theme == "damals"
    assert result.focus is None


def test_embedded_clause_theme_follows_complementizer(lex):
    spec = ClauseSpec(
        ClauseType.VF,
        VerbComplex(("kocht",)),
        (
            c("tina", "N", "Tina", definite="+", animate="+"),
            modifier("oft", "oft", 37),
        ),
        complementizer="daß",
    )
    result = analyze(spec.reordered(["tina", "oft"]), lex)
    assert result.theme == "tina"
    assert result.verdict is Verdict.GRAMMATICAL_UNMARKED


def test_focused_initial_element_is_not_a_theme(ex8_clause, lex):
    result = analyze(ex8_clause.reordered(["nach-frankreich", "vahe"]), lex)
    assert result.theme is None


# --- rheme recognition -------------------------------------------------------------------

def test_final_object_is_rheme(ex5_clause, lex):
    obs = ex5_clause.reordered(["ich", "gestern", "den-mann"])
    assert analyze(obs, lex).rheme == "den-mann"


def test_lexically_non_rhematic_final_modifier_gives_no_rheme(ex12_clause, lex):
    obs = ex12_clause.reordered(["er", "den-artikel", "dann", "wohl"])
    assert analyze(obs, lex).rheme is None


def test_final_pronoun_gives_no_rheme(ex5_clause, lex):
    spec = ex5_clause._replace(clause_type=ex5_clause.clause_type)
    obs = spec.reordered(["den-mann", "gestern", "ich"])
    assert analyze(obs, lex).rheme is None


# The verdict, the order explanations and the focus-construction detections
# are all read off the one compiled clause, so none of them is returned for
# an unresolved key.
@pytest.mark.parametrize(
    "reading",
    [
        pytest.param(lambda result: result.verdict, id="analyze"),
        pytest.param(lambda result: result.explanations, id="explain_order"),
        pytest.param(lambda result: result.detected_focus, id="detect_focus_constructions"),
    ],
)
def test_unresolved_final_lexicon_key_raises_key_error(ex5_clause, lex, reading):
    spec = ex5_clause._replace(constituents=ex5_clause.constituents + (modifier("bald", "bald", 25),))
    with pytest.raises(ValueError, match=r"^invalid clause spec: bald: lexicon has no reading 'bald#25' \(lemma"):
        reading(analyze(spec.reordered(["ich", "den-mann", "gestern", "bald"]), lex))


# --- full pipeline ---------------------------------------------------------------------

def test_marked_pronoun_order_verdict(ex1_clause, lex):
    result = analyze(ex1_clause.reordered(["morgen", "ihn", "ich", "vielleicht"]), lex)
    assert result.verdict is Verdict.GRAMMATICAL_MARKED
    assert result.focus == "ich"
    assert result.markedness_cost == 1


def test_starred_order_verdict(ex2_clause, lex):
    result = analyze(ex2_clause.reordered(["ebenfalls", "er", "dennoch", "nach-muenchen"]), lex)
    assert result.verdict is Verdict.UNGRAMMATICAL
    assert result.explanations == ()


def test_final_particle_triggers_stress_warning(ex12_clause, lex):
    result = analyze(ex12_clause.reordered(["er", "den-artikel", "dann", "wohl"]), lex)
    assert result.verdict is Verdict.GRAMMATICAL_MARKED
    assert result.rheme is None
    assert result.warning is not None
    assert result.warning.verb_candidate == "las"
    assert result.warning.vorfeld_candidate == "er"
    assert result.markedness_cost == 0  # focus-free explanations exist


def test_unmarked_requires_focus_free_explanation(ex5_clause, lex):
    result = analyze(ex5_clause.reordered(["ich", "den-mann", "gestern"]), lex)
    assert result.verdict is Verdict.GRAMMATICAL_UNMARKED
    assert any(not tags for tags in result.explanations)
    assert result.markedness_cost == 0


def test_detector_agrees_with_search_on_marked_orders(ex9_clause, lex):
    obs = ex9_clause.reordered(["einen-inder", "anne"])
    result = analyze(obs, lex)
    for detected in result.detected_focus:
        assert all(dict(tags).get(detected) is Tag.FOCUS for tags in result.explanations)


def test_detector_ignores_default_fronting_in_late_field_only_clauses(lex):
    # Subjectless clause of late-field elements: something has to open the
    # clause, so the fronting carries no stress requirement.
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("wurde",), ("gewartet",)),
        (
            c("auf-den-bus", "PO", "auf den Bus", definite="+", animate="-"),
            c("dort", "SIT", "dort"),
        ),
    )
    result = analyze(spec.reordered(["auf-den-bus", "dort"]), lex)
    assert result.detected_focus == ()
    assert result.verdict is Verdict.GRAMMATICAL_UNMARKED


def test_detector_ignores_presentational_fronting_over_rhematic_subjects(lex):
    # An indefinite subject can be tagged rhematic, licensing the fronted
    # prepositional object without any stress; the detector must stay quiet.
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("warteten",)),
        (
            c("kinder", "N", "Kinder", definite="-", animate="+"),
            c("auf-den-bus", "PO", "auf den Bus", definite="+", animate="-"),
        ),
    )
    result = analyze(spec.reordered(["auf-den-bus", "kinder"]), lex)
    assert result.detected_focus == ()
    assert any(not tags for tags in result.explanations) is False  # not the default order
    assert result.markedness_cost == 0  # the subject-rheme reading is focus-free


def test_detector_skips_late_field_pronouns(lex):
    # Prepositional pronouns default to the late field; standing right of a
    # modifier is their unmarked position.
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("hat",), ("gewartet",)),
        (
            c("er", "N", "er", pron=True),
            modifier("gestern", "gestern", 26),
            c("darauf", "PO", "darauf", pron=True),
        ),
    )
    result = analyze(spec.reordered(["er", "gestern", "darauf"]), lex)
    assert result.detected_focus == ()
    assert result.markedness_cost == 0  # no contrastive focus required
    assert () in result.explanations  # it is the default order


def test_detectors_are_sound_on_random_clauses(lex, table):
    # Wherever a detector fires on a derivable order, every explanation must
    # focus the detected constituent.
    import random

    from .strategies import random_clause

    rng = random.Random(99)
    probed = 0
    while probed < 25:
        spec = random_clause(rng, max_constituents=4)
        try:
            variants = enumerate_orders(spec, lex, table)
        except Exception:
            continue
        probed += 1
        for variant in variants:
            result = analyze(spec.reordered(variant.order), lex, table)
            for cid in result.detected_focus:
                assert all(
                    dict(tags).get(cid) is Tag.FOCUS for tags in result.explanations
                ), (spec, variant.order, cid)


# --- round trip -----------------------------------------------------------------------

def test_round_trip_up_to_eight_constituents(lex):
    for spec, tags in sample_valid_pairs(30, seed=11, max_constituents=8):
        surface = linearize(spec, tags, lex)
        explanations = analyze(spec.reordered(surface.order), lex).explanations
        assert tuple(sorted(tags.items())) in explanations, (spec, tags, surface.order)


def test_round_trip_over_full_enumeration(lex, table):
    # Every assignment that realizes an enumerated order must explain it.
    rng = random.Random(5)
    for _ in range(100):
        spec = random_clause(rng, max_constituents=6)
        for variant in enumerate_orders(spec, lex, table):
            explanations = analyze(spec.reordered(variant.order), lex, table).explanations
            for assignment in variant.assignments:
                assert assignment in explanations, (spec, variant.order, assignment)


def test_what_analysis_recovers_from_generation(lex, table):
    # Generate, then analyze the output with the focus carrier stress-marked.
    # The generating assignment is always an explanation, but the theme and
    # rheme fields are positional readings (first and last constituent), so
    # they often name another carrier than generation used.  The counts are
    # pinned so that a change to either reading shows here.
    carried, recovered = Counter(), Counter()
    for spec, tags in sample_valid_pairs(2000, seed=0):
        surface = linearize(spec, tags, lex, table)
        stress = [cid for cid, tag in tags.items() if tag is Tag.FOCUS]
        result = analyze(spec.reordered(surface.order, stress), lex, table)
        assert tuple(sorted(tags.items())) in result.explanations, (spec, tags, surface.order)
        for cid, tag in tags.items():
            carried[tag] += 1
            if getattr(result, tag.value.lower()) == cid:
                recovered[tag] += 1
            else:
                assert tag is not Tag.THEME or spec.clause_type is ClauseType.VF, (spec, tags, surface.order)
    assert carried == {Tag.THEME: 672, Tag.RHEME: 316, Tag.FOCUS: 540}
    assert recovered == {Tag.THEME: 588, Tag.RHEME: 104, Tag.FOCUS: 540}
