import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from wortfolge import (
    Category,
    InexpressibleTags,
    CooccurrenceViolation,
    Tag,
    enumerate_orders,
    linearize,
)
from wortfolge.linearize import _fields, realizations

from .conftest import c, modifier
from .strategies import random_clause, specs_with_tags


# --- Vorfeld selection ---------------------------------------------------------

def test_theme_takes_the_vorfeld(ex5_clause, lex):
    assert linearize(ex5_clause, {"gestern": Tag.THEME}, lex).vorfeld == "gestern"


def test_subject_default_without_theme(ex5_clause, lex):
    assert linearize(ex5_clause, {}, lex).vorfeld == "ich"


def test_vorfeld_incapable_theme_falls_through_to_subject(ex2_clause, lex):
    assert linearize(ex2_clause, {}, lex).vorfeld == "er"
    # The subject opens instead, so the theme is stranded (not NoVorfeld).
    with pytest.raises(InexpressibleTags, match="theme ebenfalls cannot occupy the Vorfeld"):
        linearize(ex2_clause, {"ebenfalls": Tag.THEME}, lex)


def test_subjectless_clause_fronts_first_capable_element(lex):
    from wortfolge import ClauseSpec, ClauseType, VerbComplex

    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("wurde",), ("getanzt",)),
        (modifier("gestern", "gestern", 26), modifier("oft", "oft", 37)),
    )
    assert linearize(spec, {}, lex).vorfeld == "gestern"
    assert linearize(spec, {}, lex).text == "Gestern wurde oft getanzt"


def test_degenerate_clause_has_no_vorfeld(lex):
    from wortfolge import ClauseSpec, ClauseType, NoVorfeld, VerbComplex

    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("wurde",), ("getanzt",)),
        (modifier("ebenfalls", "ebenfalls", 35),),  # lexically Vorfeld-incapable
    )
    with pytest.raises(NoVorfeld):
        linearize(spec, {}, lex)


# --- linearize -----------------------------------------------------------------

def test_default_order(ex5_clause, lex):
    assert linearize(ex5_clause, {}, lex).text == "Ich habe den Mann gestern gesehen"


def test_rhematic_object_moves_right(ex5_clause, lex):
    surface = linearize(ex5_clause, {"den-mann": Tag.RHEME}, lex)
    assert surface.text == "Ich habe gestern den Mann gesehen"


def test_theme_fronting(ex5_clause, lex):
    surface = linearize(ex5_clause, {"gestern": Tag.THEME}, lex)
    assert surface.text == "Gestern habe ich den Mann gesehen"


def test_verb_final_clause_with_theme_and_focus(ex5_vf_clause, lex):
    surface = linearize(ex5_vf_clause, {"gestern": Tag.THEME, "ich": Tag.FOCUS}, lex)
    assert surface.text == "weil gestern ICH den Mann gesehen habe"
    assert surface.vorfeld is None


def test_focused_pronoun_takes_the_early_focus_slot(ex1_clause, lex):
    surface = linearize(ex1_clause, {"morgen": Tag.THEME, "ihn": Tag.FOCUS}, lex)
    assert surface.order == ("morgen", "ich", "ihn", "vielleicht")


def test_modifier_band_order(ex6_clause, lex):
    assert linearize(ex6_clause, {}, lex).text == "Ich habe deshalb gestern mit Wolf ferngesehen"


def test_rhematic_modifier_moves_past_modal_band(ex6_clause, lex):
    surface = linearize(ex6_clause, {"gestern": Tag.RHEME}, lex)
    assert surface.text == "Ich habe deshalb mit Wolf gestern ferngesehen"


def test_rheme_on_pronoun_is_inexpressible(ex5_clause, lex):
    with pytest.raises(InexpressibleTags):
        linearize(ex5_clause, {"ich": Tag.RHEME}, lex)


def test_theme_on_late_field_element_is_inexpressible(ex2_clause, lex):
    with pytest.raises(InexpressibleTags):
        linearize(ex2_clause, {"nach-muenchen": Tag.THEME}, lex)


def test_duplicate_nominative_raises_cooccurrence(ex5_clause, lex):
    doubled = ex5_clause._replace(
        constituents=ex5_clause.constituents
        + (c("die-frau", "N", "die Frau", definite="+", animate="+"),),
    )
    with pytest.raises(CooccurrenceViolation):
        linearize(doubled, {}, lex)


def test_determinism(ex6_clause, lex):
    first = linearize(ex6_clause, {"gestern": Tag.RHEME}, lex)
    second = linearize(ex6_clause, {"gestern": Tag.RHEME}, lex)
    assert first == second


# --- realization relation --------------------------------------------------------

def test_linearize_output_is_a_realization(ex5_clause, lex):
    for tags in ({}, {"den-mann": Tag.RHEME}, {"gestern": Tag.THEME}):
        surface = linearize(ex5_clause, tags, lex)
        assert surface.order in {s.order for s in realizations(ex5_clause, tags, lex)}


def test_focus_fronting_realizes_vorfeld_focus(ex8_clause, lex):
    tags = {"nach-frankreich": Tag.FOCUS}
    with pytest.raises(InexpressibleTags):
        linearize(ex8_clause, tags, lex)  # no Mittelfeld slot for a focused DIR
    orders = {s.order for s in realizations(ex8_clause, tags, lex)}
    assert ("nach-frankreich", "vahe") in orders


def test_late_focus_alternative_for_object_pronoun(ex1_clause, lex):
    tags = {"morgen": Tag.THEME, "ihn": Tag.FOCUS}
    orders = {s.order for s in realizations(ex1_clause, tags, lex)}
    assert ("morgen", "ich", "ihn", "vielleicht") in orders  # early focus slot
    assert ("morgen", "ich", "vielleicht", "ihn") in orders  # late focus slot


def test_inexpressible_tags_give_no_realizations(ex5_clause, lex):
    assert realizations(ex5_clause, {"ich": Tag.RHEME}, lex) == []


# --- enumeration ------------------------------------------------------------------

def test_enumeration_covers_attested_variants(ex1_clause, lex):
    rendered = {v.order for v in enumerate_orders(ex1_clause, lex)}
    assert ("morgen", "ich", "ihn", "vielleicht") in rendered  # modifier Vorfeld
    assert ("ich", "ihn", "vielleicht", "morgen") in rendered  # default
    assert ("ich", "ihn", "morgen", "vielleicht") in rendered  # rhematic vielleicht
    assert ("vielleicht", "ich", "ihn", "morgen") in rendered  # pragmatic Vorfeld


def test_enumeration_excludes_starred_orders(ex2_clause, lex):
    rendered = {v.order for v in enumerate_orders(ex2_clause, lex)}
    assert ("er", "dennoch", "ebenfalls", "nach-muenchen") in rendered
    assert ("dennoch", "er", "ebenfalls", "nach-muenchen") in rendered
    assert ("er", "ebenfalls", "dennoch", "nach-muenchen") not in rendered
    assert ("ebenfalls", "er", "dennoch", "nach-muenchen") not in rendered


def test_enumeration_retains_all_assignments_per_order(ex5_clause, lex):
    variants = {v.order: v for v in enumerate_orders(ex5_clause, lex)}
    default = variants[("ich", "den-mann", "gestern")]
    assert () in default.assignments  # the empty assignment
    assert len(default.assignments) > 1  # e.g. optional theme on the subject


def _kommt(*constituents):
    from wortfolge import ClauseSpec, ClauseType, VerbComplex

    return ClauseSpec(ClauseType.V2, VerbComplex(("kommt",)), constituents)


def test_enumeration_keeps_a_focused_subject_that_cannot_front(lex):
    # wohl#33 is neither Vorfeld-capable nor focusable, but the Vorfeld rule
    # picks the subject without asking, so the focused subject still opens
    # the clause.
    spec = _kommt(c("er", "N", "er", pron=True, key="wohl#33"), modifier("morgen", "morgen", 26))
    tags = {"er": Tag.FOCUS}
    assert [s.text for s in realizations(spec, tags, lex)] == ["ER kommt morgen"]
    variants = {v.order: v for v in enumerate_orders(spec, lex)}
    assert (("er", Tag.FOCUS),) in variants[("er", "morgen")].assignments


def test_enumeration_keeps_focus_fronting_of_a_non_focusable_modifier(lex):
    # dennoch#20 is Vorfeld-capable but not focusable; focus fronting asks
    # only for Vorfeld capability.
    spec = _kommt(c("er", "N", "er", pron=True), modifier("dennoch", "dennoch", 20), modifier("morgen", "morgen", 26))
    tags = {"dennoch": Tag.FOCUS}
    assert [s.text for s in realizations(spec, tags, lex)] == ["DENNOCH kommt er morgen"]
    variants = {v.order: v for v in enumerate_orders(spec, lex)}
    assert (("dennoch", Tag.FOCUS),) in variants[("dennoch", "er", "morgen")].assignments


def test_enumeration_clause_size_cap(lex):
    from wortfolge import ClauseSpec, ClauseType, VerbComplex

    many = tuple(
        c(f"po{i}", "PO", f"an x{i}", definite="+", animate="-") for i in range(11)
    )
    spec = ClauseSpec(ClauseType.V2, VerbComplex(("hat",)), many)
    with pytest.raises(ValueError, match="capped"):
        enumerate_orders(spec, lex)


# --- the clause frame ------------------------------------------------------------

def _pretty_tokens(spec, variant):
    """The variant's fields as ``generate --pretty`` lays them out, flattened.

    The focus in caps is the one of the variant's surface: none if some
    assignment is focus-free, else the first assignment's.  A V2 clause
    opens with a capital.
    """
    focus_free = any(all(tag is not Tag.FOCUS for _, tag in a) for a in variant.assignments)
    focus = None if focus_free else next(cid for cid, tag in variant.assignments[0] if tag is Tag.FOCUS)
    tokens = []
    for owner, field in _fields(spec, [spec.by_id(cid) for cid in variant.order]):
        tokens += [tok.upper() for tok in field] if not isinstance(owner, str) and owner.id == focus else field
    if spec.clause_type.value == "V2":
        tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    return tuple(tokens)


def test_every_variant_renders_its_pretty_fields(lex, corpus):
    # Rendering does not walk the fields; both read the clause frame, so the
    # JSON ``rendered`` and the ``--pretty`` rows must not drift apart.
    rng = random.Random(0)
    pool = [random_clause(rng, 6) for _ in range(40)]
    pool += [case.doc.clause for case in corpus if case.doc.clause is not None]
    focused = Counter()
    for spec in pool:
        for variant in enumerate_orders(spec, lex):
            assert variant.surface.rendered == _pretty_tokens(spec, variant), variant.order
            # Under one empty assignment the same fields carry no focus caps.
            focused[variant.surface.rendered != _pretty_tokens(spec, variant._replace(assignments=((),)))] += 1
    # The pool reaches surfaces with and without a focus.
    assert focused[True] and focused[False], focused


# --- properties --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(pair=specs_with_tags(max_constituents=5))
def test_rendered_tokens_are_a_permutation(pair, lex):
    spec, tags = pair
    try:
        surface = linearize(spec, tags, lex)
    except Exception:
        return
    expected = Counter()
    for con in spec.constituents:
        expected.update(tok.casefold() for tok in con.surface)
    expected.update(tok.casefold() for tok in spec.verb.finite)
    expected.update(tok.casefold() for tok in spec.verb.nonfinite)
    if spec.complementizer:
        expected[spec.complementizer.casefold()] += 1
    assert Counter(tok.casefold() for tok in surface.rendered) == expected


@settings(max_examples=60, deadline=None)
@given(pair=specs_with_tags(max_constituents=5))
def test_tag_free_generation_fronts_the_subject(pair, lex):
    spec, _ = pair
    subject = next((c for c in spec.constituents if c.category is Category.N), None)
    try:
        surface = linearize(spec, {}, lex)
    except Exception:
        return
    if spec.clause_type.value == "V2" and subject is not None:
        assert surface.vorfeld == subject.id


def test_constituent_without_an_untagged_slot_is_refused_by_every_direction(lex):
    from wortfolge import ClauseSpec, ClauseType, VerbComplex, analyze

    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("sieht",)),
        (c("er", "N", "er", pron=True), c("hier", "SIT", "hier", svc=True)),
    )
    calls = [
        lambda: linearize(spec, {}, lex),
        lambda: linearize(spec, {"hier": Tag.THEME}, lex),
        lambda: realizations(spec, {"hier": Tag.THEME}, lex),
        lambda: enumerate_orders(spec, lex),
        lambda: analyze(spec.reordered(("er", "hier")), lex),
        lambda: analyze(spec.reordered(("hier", "er")), lex),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^invalid clause spec: hier: no untagged slot$"):
            call()


# --- the lexicon contract ------------------------------------------------------------

#: V2 ``er dennoch morgen`` with the middle modifier as given: its key resolves
#: and agrees with its Hoberg index, resolves to nothing, resolves to a
#: reading of another class, or is not a string (an unhashable one included).
#: Per case: the constituent and the clause defect.
LEXICON_CASES = {
    "valid": (modifier("dennoch", "dennoch", 20), None),
    "unresolved": (modifier("bald", "bald", 25), "bald: lexicon has no reading 'bald#25' (lemma 'bald')"),
    "contradiction": (
        c("dennoch", "M", "dennoch", hoberg=44, key="dennoch#20"),
        "dennoch: hoberg_index 44 contradicts dennoch#20 (class 20)",
    ),
    "non-string-key": (c("dennoch", "M", "dennoch", hoberg=20, key=20), "dennoch: lexicon_key 20 is not a string"),
    "unhashable-key": (
        c("dennoch", "M", "dennoch", hoberg=20, key=["dennoch#20"]),
        "dennoch: lexicon_key ['dennoch#20'] is not a string",
    ),
}


def _every_entry_point(spec, lex):
    from wortfolge import CandidateReading, analyze, rank_readings

    return {
        "linearize": lambda: linearize(spec, {}, lex),
        "analyze": lambda: analyze(spec, lex),
        "enumerate_orders": lambda: enumerate_orders(spec, lex),
        "rank_readings": lambda: rank_readings([CandidateReading("a", spec)], lex),
    }


@pytest.mark.parametrize("case", list(LEXICON_CASES))
def test_every_entry_point_checks_each_lexicon_key(lex, case):
    # The compiled clause is the one place a key is checked against the
    # lexicon, so every call refuses a defect alike, as an invalid clause.
    middle, defect = LEXICON_CASES[case]
    spec = _kommt(c("er", "N", "er", pron=True), middle, modifier("morgen", "morgen", 26))
    for name, call in _every_entry_point(spec, lex).items():
        if defect is None:
            assert call(), name
            continue
        with pytest.raises(ValueError, match=rf"^invalid clause spec: {re.escape(defect)}$"):
            call()
    if defect is None:
        assert linearize(spec, {}, lex).text == "Er kommt dennoch morgen"


@pytest.mark.parametrize("cid", [["er"], 5])
def test_every_entry_point_refuses_an_id_that_is_not_a_string(lex, cid):
    # The id is refused before anything hashes it or prints it as a string,
    # also under a stress mark, which analysis reads before compiling.
    from wortfolge import analyze

    spec = _kommt(c(cid, "N", "er", pron=True), modifier("morgen", "morgen", 26))
    calls = _every_entry_point(spec, lex)
    calls["analyze, stressed"] = lambda: analyze(spec._replace(stress={"morgen"}), lex)
    defect = rf"^invalid clause spec: constituent id {re.escape(repr(cid))} is not a string$"
    for call in calls.values():
        with pytest.raises(ValueError, match=defect):
            call()


def test_every_entry_point_refuses_an_empty_id(lex):
    # Documents refuse an empty id; the API refuses it as a clause defect,
    # also under a stress mark on it.
    from wortfolge import analyze

    spec = _kommt(c("", "N", "er", pron=True), modifier("morgen", "morgen", 26))
    calls = _every_entry_point(spec, lex)
    calls["analyze, stressed"] = lambda: analyze(spec._replace(stress={""}), lex)
    for call in calls.values():
        with pytest.raises(ValueError, match=r"^invalid clause spec: empty constituent id$"):
            call()


@pytest.mark.parametrize("tag", ["BOGUS", 5, None, [], {}, "THEME", "RHEME", "FOCUS"])
def test_a_value_that_is_not_a_tag_is_an_invalid_assignment(lex, tag):
    # A plain string equals the Tag member of its value, but only a Tag is a tag.
    spec = _kommt(c("er", "N", "er", pron=True), modifier("morgen", "morgen", 26))
    with pytest.raises(ValueError, match=rf"^invalid assignment: er: unknown tag {re.escape(repr(tag))}$"):
        linearize(spec, {"er": tag}, lex)
    assert realizations(spec, {"er": tag}, lex) == []
