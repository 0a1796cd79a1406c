import itertools
import json
import re
import sys
import threading
from importlib import resources

import pytest

from wortfolge import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    InexpressibleTags,
    Tag,
    VerbComplex,
    analyze,
    enumerate_orders,
    linearize,
)
from wortfolge.clause import TRISTATE_VALUES
from wortfolge.cli import main
from wortfolge.lexicon import load_lexicon
from wortfolge.linearize import CompiledClause, CooccurrenceViolation
from wortfolge.slots import (
    KEY_TAGS,
    SlotTableError,
    _signature,
    build_slot_table,
    load_slot_table,
)

from . import oracle
from .conftest import c, modifier

SHIPPED_TABLE = resources.files("wortfolge.data").joinpath("slot_table.tsv")


def _facts(table, x):
    """The signature facts the compiled clause reads for ``x``: the index's on
    a hit, else those of :func:`_signature`, which files them."""
    f = x.features
    signature = (x.category, f.definite, f.animate, f.pronominal, f.svc, x.hoberg_index, x.hoberg_index.__class__)
    return table._index.get(signature) or _signature(table, x, signature)


def _slots(table, constituent, tag=None):
    """The slots the engine places the constituent in under the tag, in
    table order, before any lexical veto."""
    return [key[0] for key in _facts(table, constituent)[1][KEY_TAGS.index(tag)] or ()]


def _slot(table, constituent, tag=None):
    return _slots(table, constituent, tag)[0]


def _vf(*constituents):
    """The VF clause of the constituents, in input order."""
    return ClauseSpec(ClauseType.VF, VerbComplex(("hat",)), constituents)


def _compiled(table, lex, *constituents):
    """:func:`_vf` compiled for every tag."""
    return CompiledClause(_vf(*constituents), {}, lex, table)


# --- table structure ---------------------------------------------------------

def test_slot_ordinals_dense_and_landmarks_ordered(table):
    assert table.slot_count == 27
    assert table.theme_slot < table.rheme_slot < table.focus_slots[-1]


def test_situative_band_precedes_rheme_slot(table):
    gestern = modifier("gestern", "gestern", 26)
    assert _slot(table, gestern) < table.rheme_slot


def test_rheme_slot_follows_the_modal_band(table):
    modal_band = _slot(table, modifier("mit-wolf", "mit + NP", 42, surface="mit Wolf"))
    assert table.rheme_slot > modal_band


def test_definite_animate_object_precedes_pragmatic_band(table):
    den_mann = c("den-mann", "A", "den Mann", definite="+", animate="+")
    vielleicht = modifier("vielleicht", "vielleicht", 12)
    assert _slot(table, den_mann) < _slot(table, vielleicht)


def test_arrow_order_accusative_before_dative_in_pronoun_slot(table):
    a = c("a", "A", "ihn", pron=True)
    d = c("d", "D", "ihm", pron=True)
    (slot_a, rank_a, _), = _facts(table, a)[1][0]
    (slot_d, rank_d, _), = _facts(table, d)[1][0]
    assert slot_a == slot_d
    assert rank_a < rank_d


# --- placements ---------------------------------------------------------------

def test_untagged_subject_pronoun_heads_the_table(table):
    assert _slot(table, c("ich", "N", "ich", pron=True)) == 1


def test_focused_subject_pronoun_lands_after_theme_slot(table):
    ich = c("ich", "N", "ich", pron=True)
    slot = _slot(table, ich, tag=Tag.FOCUS)
    assert slot == table.focus_slots[0]
    assert slot > table.theme_slot


def test_rhematic_modifier_lands_after_modal_band(table):
    gestern = modifier("gestern", "gestern", 26)
    mit_wolf = c("mit-wolf", "M", "mit Wolf", hoberg=42, key="mit + NP#42")
    assert _slot(table, gestern, tag=Tag.RHEME) > _slot(table, mit_wolf)


def test_lexically_non_rhematic_modifier_has_no_rheme_slot(table, lex):
    # The table places the modifier in the RHEME slot; its lexicon entry vetoes it.
    wohl = modifier("wohl", "wohl", 33)
    assert _slots(table, wohl, tag=Tag.RHEME) == [table.rheme_slot]
    assert _compiled(table, lex, wohl).keys[0][KEY_TAGS.index(Tag.RHEME)] is None
    message = "no slot for wohl as RHEME (wohl is lexically non-rhematic)"
    with pytest.raises(oracle.NoSlotError, match=rf"^{re.escape(message)}$"):
        oracle.sort_key(table, wohl, 0, tag=Tag.RHEME, lex=lex)
    with pytest.raises(InexpressibleTags, match=rf"^{re.escape(message)}$"):
        linearize(_vf(wohl), {"wohl": Tag.RHEME}, lex, table)


def test_table_without_a_rheme_slot_names_no_veto(table):
    # The entry admits every tag, so the missing slot is the table's and the
    # message names no lexical veto.
    lex = load_lexicon("x\t44\t44\t1\t1\t1\t-\t0\tg\n")
    m = modifier("m", "x", 44)
    for clause_type, constituents in ((ClauseType.V2, (c("er", "N", "er", pron=True), m)), (ClauseType.VF, (m,))):
        spec = ClauseSpec(clause_type, VerbComplex(("hat",)), constituents)
        with pytest.raises(InexpressibleTags, match=r"^no slot for m as RHEME$"):
            linearize(spec, {"m": Tag.RHEME}, lex, table)


def test_rheme_on_personal_pronoun_has_no_slot(table):
    for category in ("N", "A", "D"):
        pron = c("p", category, "es", pron=True)
        assert _slots(table, pron, tag=Tag.RHEME) == []


def test_rheme_on_genitive_pronoun_is_expressible(table):
    g = c("g", "G", "dessen", pron=True)
    assert _slot(table, g, tag=Tag.RHEME) == table.rheme_slot


def test_focused_object_pronoun_has_early_and_late_slots(table, lex):
    ihn = c("ihn", "A", "ihn", pron=True)
    assert _slots(table, ihn, tag=Tag.FOCUS) == list(table.focus_slots)
    # the early slot wins for the deterministic key
    assert linearize(_vf(ihn), {"ihn": Tag.FOCUS}, lex, table).keys[0][1][0] == table.focus_slots[0]


def test_focused_subject_pronoun_has_only_the_early_slot(table):
    ich = c("ich", "N", "ich", pron=True)
    assert _slots(table, ich, tag=Tag.FOCUS) == [table.focus_slots[0]]


def test_negation_cannot_take_late_focus_slot(table):
    nicht = modifier("nicht", "nicht", 41)
    assert _slots(table, nicht, tag=Tag.FOCUS) == []


def test_svc_part_matches_only_final_slot(table):
    svc = c("antwort", "A", "Antwort", svc=True)
    assert _slot(table, svc) == table.slot_count
    assert _slots(table, svc, tag=Tag.RHEME) == []


def test_constituent_without_untagged_slot_is_an_invalid_clause(table, lex):
    # The SVC slot holds only N, A, D, G and PO parts: the refusal every
    # command gives, not an inexpressible tagging.
    hier = c("hier", "SIT", "hier", svc=True)
    assert _slots(table, hier) == []
    for keys_of in (oracle.sort_key, oracle.all_sort_keys):
        with pytest.raises(ValueError, match=r"^invalid clause spec: hier: no untagged slot$"):
            keys_of(table, hier, 0)
        with pytest.raises(ValueError, match=r"^invalid clause spec: hier: no untagged slot$"):
            keys_of(table, hier, 0, lex=lex)
    spec = ClauseSpec(ClauseType.V2, VerbComplex(("sieht",)), (c("er", "N", "er", pron=True), hier))
    with pytest.raises(ValueError, match=r"^invalid clause spec: hier: no untagged slot$"):
        CompiledClause(spec, {}, lex, table)


# --- slot-key ordering ----------------------------------------------------------

def _untagged_keys(table, lex, *constituents):
    """The untagged ``(slot, sub_rank, hoberg)`` key of each constituent of
    the VF clause they make, in input order."""
    return [row[0][0] for row in _compiled(table, lex, *constituents).keys]


def test_modifier_indexes_order_within_a_band(table, lex):
    dennoch = modifier("dennoch", "dennoch", 20)
    ebenfalls = modifier("ebenfalls", "ebenfalls", 35)
    ka, kb = _untagged_keys(table, lex, dennoch, ebenfalls)
    assert ka < kb


def test_pragmatic_band_precedes_situative_band(table, lex):
    deshalb = modifier("deshalb", "deshalb", 22)
    gestern = modifier("gestern", "gestern", 26)
    ka, kb = _untagged_keys(table, lex, deshalb, gestern)
    assert ka < kb


def test_equal_indexes_keep_input_order(table, lex):
    # The compiled keys tie; generation breaks the tie by input ordinal.
    gestern = modifier("gestern", "gestern", 26)
    damals = modifier("damals", "damals", 26)
    ka, kb = _untagged_keys(table, lex, gestern, damals)
    assert ka == kb
    for first, second in ((gestern, damals), (damals, gestern)):
        surface = linearize(_vf(first, second), {}, lex, table)
        assert surface.mittelfeld == (first.id, second.id)
        assert surface.keys == ((first.id, (*ka, 0)), (second.id, (*kb, 1)))


def test_untagged_sort_reproduces_the_three_modifier_order(table, lex, ex6_clause):
    clause = CompiledClause(ex6_clause, {}, lex, table)
    keyed = sorted(
        (row[0][0], con.id)
        for con, row in zip(ex6_clause.constituents, clause.keys)
        if con.category is Category.M
    )
    assert [cid for _, cid in keyed] == ["deshalb", "gestern", "mit-wolf"]


# --- totality over the valid feature space ------------------------------------

def _all_valid_untagged():
    for category in ("N", "A", "D", "PO"):
        yield c("x", category, "x", pron=True)
        yield c("x", category, "x", svc=True) if category != "N" else c("x", category, "x", svc=True)
        for definite, animate in itertools.product("+-", repeat=2):
            yield c("x", category, "x", definite=definite, animate=animate)
    for pron in (True, False):
        yield c("x", "G", "x", pron=pron)
        yield c("x", "NOM", "x", pron=pron)
        yield c("x", "ADJ", "x", pron=pron)
    for category in ("SIT", "DIR", "EXP"):
        yield c("x", category, "x")
    for index in (1, 9, 18, 19, 26, 40, 41, 42, 43, 44):
        yield c("x", "M", "x", hoberg=index)


def test_default_order_is_total(table):
    for constituent in _all_valid_untagged():
        assert 1 <= _slot(table, constituent) <= table.slot_count


# --- the signature index ------------------------------------------------------

def _accepted_signatures():
    """One constituent per slot-matching signature the clause validator accepts."""
    table = load_slot_table(SHIPPED_TABLE.read_text("utf-8"))
    for category in Category:
        indexes = range(1, 45) if category is Category.M else (None,)
        for definite, animate, pron, svc, index in itertools.product(
            TRISTATE_VALUES, TRISTATE_VALUES, (False, True), (False, True), indexes
        ):
            x = Constituent("x", category, ("x",), FeatureBundle(definite, animate, pron, svc), index)
            if not _facts(table, x)[0]:
                yield x


ACCEPTED = tuple(_accepted_signatures())


def _oracle_placements(table, x):
    """The oracle's ``(slot, sub_rank)`` per placing pattern plus the Hoberg index, None without one."""
    hoberg = x.hoberg_index or 0
    return tuple(
        tuple((p.slot, p.sub_rank, hoberg) for p in oracle.placing_patterns(table, x, tag)) or None
        for tag in KEY_TAGS
    )


def test_signature_index_agrees_with_an_independent_scan():
    text = SHIPPED_TABLE.read_text("utf-8")
    assert len(ACCEPTED) == 1924
    warm = load_slot_table(text)
    for x in reversed(ACCEPTED):
        _facts(warm, x)
    # Each signature is first looked up in the cold table here.
    cold = load_slot_table(text)
    for x in ACCEPTED:
        expected = _oracle_placements(cold, x)
        assert _facts(cold, x)[1] == expected, x
        assert _facts(warm, x)[1] == expected, x


def test_compiled_keys_agree_with_the_oracle_keyer(table, lex):
    # Every key the compiled clause holds, with its Hoberg index, is the
    # oracle's without the input ordinal, and a missing key is the oracle's
    # NoSlotError.
    compared = 0
    for x in ACCEPTED:
        if not _slots(table, x):
            continue
        row = _compiled(table, lex, c("y", "M", "y", hoberg=1), x).keys[1]
        for tag, keys in zip(KEY_TAGS, row):
            try:
                expected = tuple(key[:3] for key in oracle.all_sort_keys(table, x, 1, tag=tag, lex=lex))
            except oracle.NoSlotError:
                expected = None
            assert keys == expected, (x, tag)
        compared += 1
    assert compared == 1042


def test_every_accepted_constituent_has_one_untagged_slot_or_is_refused(table, lex):
    refused = 0
    for x in ACCEPTED:
        keys = _facts(table, x)[1][0]
        if x.features.svc and x.category not in (Category.N, Category.A, Category.D, Category.G, Category.PO):
            assert keys is None, x
            with pytest.raises(ValueError, match=r"^invalid clause spec: x: no untagged slot$"):
                _compiled(table, lex, x)
            refused += 1
        else:
            assert len(keys) == 1, x
            _compiled(table, lex, x)
    assert refused == 882


def _group(x):
    """The category/feature group of a signature: the category with the
    features its patterns can tell apart."""
    f, category = x.features, x.category.value
    if f.svc:
        return f"{category} svc"
    if x.category is Category.M:
        return f"M {x.hoberg_index}"
    if f.pronominal:
        return f"{category} pron"
    if x.category in (Category.N, Category.A, Category.D, Category.PO):
        return f"{category} {f.definite}d{f.animate}a"
    return category


def _without(table, tag):
    """Per group, the number of placed signatures without a slot for the tag."""
    counts = {}
    for x in ACCEPTED:
        placements = _facts(table, x)[1]
        if placements[0] and not placements[KEY_TAGS.index(tag)]:
            counts[_group(x)] = counts.get(_group(x), 0) + 1
    return counts


#: Groups without a slot for the tag under any of the nine
#: definiteness/animacy values; an SVC part or a modifier counts them with
#: and without the pronoun flag (18).
_PLAIN = {group: 9 for group in ("ADJ", "ADJ pron", "DIR", "DIR pron", "EXP", "EXP pron", "NOM", "NOM pron",
                                 "SIT", "SIT pron")}
_SVC = {f"{category} svc": 18 for category in ("N", "A", "D", "G", "PO")}


def test_inexpressible_taggings_are_pinned(table):
    # The paper's inexpressible taggings, read off the table: of the 1,042
    # placed signatures, 252 have no RHEME slot and 198 no FOCUS slot.
    no_rheme = _without(table, Tag.RHEME)
    assert no_rheme == {
        **_PLAIN, **_SVC, "G": 9, "M 44": 18,
        "N +d+a": 1, "N pron": 9, "A -d+a": 1, "A -d-a": 1, "A pron": 9, "D -d+a": 1, "D -d-a": 1, "D pron": 9,
        "PO +d+a": 1, "PO +d-a": 1, "PO -d+a": 1, "PO -d-a": 1, "PO pron": 9,
    }
    assert sum(no_rheme.values()) == 252
    no_focus = _without(table, Tag.FOCUS)
    assert no_focus == {**_PLAIN, **_SVC, "M 41": 18}
    assert sum(no_focus.values()) == 198
    assert _without(table, Tag.THEME) == _SVC


def test_no_pattern_is_dead(table):
    placing = {id(p) for x in ACCEPTED for tag in KEY_TAGS for p in oracle.placing_patterns(table, x, tag)}
    assert len(table.patterns) == 59
    assert placing == {id(p) for p in table.patterns}


def _beside_a_pronoun(*constituents):
    """The V2 clause of the constituents after a pronominal subject."""
    return ClauseSpec(ClauseType.V2, VerbComplex(("sieht",)), (c("x", "N", "er", pron=True), *constituents))


def _y(category, surface, hoberg=None, **features):
    """Constituent ``y``, built without the conversions of :func:`c`."""
    surface = tuple(surface.split(" ")) if isinstance(surface, str) else surface
    return Constituent("y", category, surface, FeatureBundle(**features), hoberg)


#: Malformed constituents whose signature fields compare equal to those of
#: valid ones (``"A" == Category.A``, ``True == 1``, ``26.0 == 26``), each
#: with the defect compiling a clause with it reports.
MALFORMED = {
    "hoberg-str": (_y(Category.M, "gestern", "26"), "y: Hoberg index '26' is not an integer"),
    "hoberg-float": (_y(Category.M, "gestern", 26.0), "y: Hoberg index 26.0 is not an integer"),
    "hoberg-bool": (_y(Category.M, "eher", True), "y: Hoberg index True is not an integer"),
    "hoberg-unhashable": (_y(Category.M, "gestern", [26]), "y: Hoberg index [26] is not an integer"),
    "blank-token": (_y(Category.A, "den \t", definite="+", animate="+"), "y: blank or non-string surface token"),
    "unresolved-features": (_y(Category.A, "etwas"), "y: A requires resolved definiteness/animacy"),
    "str-category-pronoun": (_y("A", "ihn", pronominal=True), "y: unknown category 'A'"),
    "str-category-unresolved": (_y("A", "etwas"), "y: unknown category 'A'"),
}

#: Valid clauses holding the well-formed twins of those signatures.
WARMING = (
    _beside_a_pronoun(_y(Category.A, "ihn", pronominal=True), c("m", "M", "gestern", hoberg=26)),
    _beside_a_pronoun(_y(Category.A, "den Mann", definite="+", animate="+"), c("m", "M", "eher", hoberg=1)),
)


@pytest.mark.parametrize("name", list(MALFORMED))
def test_the_index_cache_state_cannot_change_an_answer(lex, name):
    constituent, defect = MALFORMED[name]
    spec = _beside_a_pronoun(constituent)
    text = SHIPPED_TABLE.read_text("utf-8")
    fresh, warmed = load_slot_table(text), load_slot_table(text)
    for clause in WARMING:
        linearize(clause, {}, lex, warmed)
        analyze(clause.reordered(("m", "x", "y")), lex, warmed)
    for table in (fresh, warmed, fresh):
        for call in (lambda: linearize(spec, {}, lex, table), lambda: analyze(spec, lex, table)):
            with pytest.raises(ValueError) as err:
                call()
            assert (type(err.value), str(err.value)) == (ValueError, f"invalid clause spec: {defect}"), table


def test_the_index_files_only_a_bounded_set_of_signatures(lex):
    table = load_slot_table(SHIPPED_TABLE.read_text("utf-8"))
    for clause in WARMING:
        linearize(clause, {}, lex, table)
    filed = len(table._index)
    for i in range(200):
        # A non-boolean flag is refused by FeatureBundle itself, before any lookup.
        for make in (lambda: _y(Category.M, "eher", 45 + i), lambda: _y(Category.A, "ihn", pronominal=f"yes{i}"),
                     lambda: _y(Category.G, "dessen", pronominal=f"yes{i}")):
            try:
                linearize(_beside_a_pronoun(make()), {}, lex, table)
            except ValueError:
                pass
    assert len(table._index) == filed


def test_threads_filling_one_index_agree():
    # More threads than cores, switching often, all filling one cold index.
    text = SHIPPED_TABLE.read_text("utf-8")
    alone = load_slot_table(text)
    expected = [_facts(alone, x)[1] for x in ACCEPTED]
    shared = load_slot_table(text)
    results = {}

    def key_all(worker):
        results[worker] = [_facts(shared, x)[1] for x in ACCEPTED]

    threads = [threading.Thread(target=key_all, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {worker: expected for worker in range(4)}


#: The shipped table with the arrow order of the object pronoun slot turned
#: round: the dative pronoun now precedes the accusative one.
_ARROW = ("1\t2\t1\tA\tpron\t-\t-\t-", "1\t2\t3\tA\tpron\t-\t-\t-")

_GIBT = ClauseSpec(
    ClauseType.V2,
    VerbComplex(("gibt",)),
    (c("er", "N", "er", pron=True), c("es", "A", "es", pron=True), c("ihm", "D", "ihm", pron=True)),
)


def _answers(table, lex):
    return (
        linearize(_GIBT, {}, lex, table).text,
        linearize(_GIBT, {"ihm": Tag.FOCUS}, lex, table).text,
        analyze(_GIBT.reordered(("er", "es", "ihm")), lex, table).verdict,
        [v.surface.text for v in enumerate_orders(_GIBT, lex, table)],
    )


def test_each_table_instance_keeps_its_own_index(lex):
    text = SHIPPED_TABLE.read_text("utf-8")
    assert _ARROW[0] in text
    texts = {"shipped": text, "custom": text.replace(*_ARROW)}
    fresh = {name: _answers(load_slot_table(t), lex) for name, t in texts.items()}
    assert fresh["shipped"][0] == "Er gibt es ihm"
    assert fresh["custom"][0] == "Er gibt ihm es"
    assert fresh["shipped"][2:] != fresh["custom"][2:]
    for order in (("custom", "shipped"), ("shipped", "custom")):
        tables = {name: load_slot_table(texts[name]) for name in order}
        for name in order * 3:
            assert _answers(tables[name], lex) == fresh[name], (order, name)
            assert _answers(build_slot_table(), lex) == fresh["shipped"], (order, name)


def test_each_slot_table_file_keeps_its_own_index(tmp_path, capsys):
    custom = tmp_path / "custom.tsv"
    custom.write_text(SHIPPED_TABLE.read_text("utf-8").replace(*_ARROW), encoding="utf-8")
    clause = {
        "clause_type": "V2",
        "verb": {"finite": ["gibt"]},
        "constituents": [
            {"id": cid, "category": cat, "surface": [cid], "features": {"pronominal": True}}
            for cid, cat in (("er", "N"), ("es", "A"), ("ihm", "D"))
        ],
    }
    document = tmp_path / "clause.json"
    document.write_text(json.dumps(clause), encoding="utf-8")
    commands = (["generate", "--clause", str(document)], ["analyze", "--observed", str(document)])
    tables = {"shipped": [], "custom": ["--slot-table", str(custom)]}

    def run(name):
        seen = []
        for command in commands:
            seen.append((main(tables[name] + command), *capsys.readouterr()))
        return seen

    first = {name: run(name) for name in ("custom", "shipped")}
    assert json.loads(first["shipped"][0][1])["text"] == "Er gibt es ihm"
    assert json.loads(first["custom"][0][1])["text"] == "Er gibt ihm es"
    assert first["shipped"][1] != first["custom"][1]
    for name in ("shipped", "custom", "custom", "shipped", "custom"):
        assert run(name) == first[name], name


def test_late_focus_slot_follows_every_row5_slot(table):
    row5_slots = {p.slot for p in table.patterns if p.row == 5}
    assert row5_slots
    assert all(table.focus_slots[-1] > slot for slot in row5_slots)


def _typically_rhematic(table, lex, constituent):
    return _compiled(table, lex, constituent).typically_rhematic[0]


def test_typically_rhematic_geometry(table, lex):
    assert _typically_rhematic(table, lex, c("x", "DIR", "nach Rom"))
    assert _typically_rhematic(table, lex, c("x", "PO", "darauf", pron=True))
    assert _typically_rhematic(table, lex, c("x", "A", "einen Inder", definite="-", animate="+"))
    assert _typically_rhematic(table, lex, c("x", "G", "des Hauses", definite="+", animate="-"))
    assert not _typically_rhematic(table, lex, c("x", "N", "der Mann", definite="+", animate="+"))
    assert not _typically_rhematic(table, lex, modifier("x", "dennoch", 20))
    assert not _typically_rhematic(table, lex, c("x", "A", "den Mann", definite="+", animate="+"))


# --- cooccurrence -------------------------------------------------------------

def test_sit_dir_cooccurrence_flagged(table, lex, ex5_clause):
    spec = ex5_clause._replace(
        constituents=ex5_clause.constituents
        + (c("hier", "SIT", "hier"), c("nach-rom", "DIR", "nach Rom")),
    )
    with pytest.raises(CooccurrenceViolation) as err:
        CompiledClause(spec, {}, lex, table)
    assert any("SIT/DIR/EXP" in v for v in err.value.violations)


def test_arrow_group_members_cooccur(table, lex):
    spec = ClauseSpec(
        ClauseType.V2,
        VerbComplex(("gibt",)),
        (
            c("er", "N", "er", pron=True),
            c("das-buch", "A", "das Buch", definite="+", animate="-"),
            c("dem-mann", "D", "dem Mann", definite="+", animate="+"),
        ),
    )
    CompiledClause(spec, {}, lex, table)  # raises on a cooccurrence violation


def test_example_seven_clause_cooccurs(table, lex, ex7_clause):
    CompiledClause(ex7_clause, {}, lex, table)  # raises on a cooccurrence violation


# --- loader errors -------------------------------------------------------------

#: A minimal well-formed table (THEME 2 < RHEME 5 < general FOCUS 7, late
#: field from slot 6, modifier band from slot 4); each case below breaks it.
_MINIMAL_TABLE = (
    "1\t1\t1\tN\tpron\t-\t-\t-",
    "1\t2\t1\t*\t-\tTHEME\t-\t-",
    "2\t3\t1\tN\tpron\tFOCUS\t-\t-",
    "3\t4\t1\tM\t-\t-\t1-44\t-",
    "4\t5\t1\tM\t-\tRHEME\t1-44\t-",
    "5\t6\t1\tA\t-d\t-\t-\t-",
    "5\t7\t1\t*\t-\tFOCUS\t-\t-",
)


@pytest.mark.parametrize(
    "edits, message",
    [
        ({1: "1\t1\t1\tN\tpron\t-\t-"}, "line 1: expected 8 columns, got 7"),
        ({1: "x\t1\t1\tN\tpron\t-\t-\t-"}, "line 1: bad row/slot/sub_rank"),
        ({1: "1\t1\t1\tQ\tpron\t-\t-\t-"}, "line 1: unknown category 'Q'"),
        ({1: "1\t1\t1\tN\t+\t-\t-\t-"}, "line 1: bad feature notation '+'"),
        ({1: "1\t1\t1\tN\t+x\t-\t-\t-"}, "line 1: unknown feature +'x'"),
        ({2: "1\t2\t1\t*\t-\tTOPIC\t-\t-"}, "line 2: unknown tag 'TOPIC'"),
        ({4: "3\t4\t1\tM\t-\t-\t1..44\t-"}, "line 4: bad index range '1..44'"),
        ({4: "3\t4\t1\tM\t-\t-\t44-1\t-"}, "line 4: inverted index range '44-1'"),
        ({4: "3\t4\t1\tM\t-\t-\t0-50\t-"}, "line 4: index range '0-50' outside 1..44"),
        ({6: "5\t6\t1\tV_FIN\t-\t-\t-\t-"}, "line 6: unknown category 'V_FIN'"),
        ({7: "5\t8\t1\t*\t-\tFOCUS\t-\t-"}, "slot ordinals must be dense from 1"),
        ({1: "1\t1\t1\tN\tpron\tTHEME\t-\t-"}, "expected exactly one THEME slot"),
        ({5: "4\t5\t1\tM\t-\t-\t1-44\t-"}, "expected exactly one RHEME slot"),
        ({7: "5\t7\t1\t*\t-\t-\t-\t-"}, "expected the early and the general FOCUS slots"),
        (
            {1: "1\t1\t1\tN\tpron\tRHEME\t-\t-", 5: "4\t5\t1\tM\t-\t-\t1-44\t-"},
            "THEME slot must precede RHEME slot must precede general FOCUS slot",
        ),
        (
            {6: "4\t6\t1\tA\t-d\t-\t-\t-", 7: "4\t7\t1\t*\t-\tFOCUS\t-\t-"},
            "no row-5+ pattern marks the late field",
        ),
        ({4: "3\t4\t1\tA\t-\t-\t-\t-"}, "no untagged M pattern marks the modifier band"),
    ],
    ids=["columns", "row-slot-sub-rank", "category", "feature-notation", "feature", "tag", "index-range",
         "inverted-index-range", "index-range-outside", "verbal-category", "dense", "theme", "rheme", "focus", "landmark-order", "late-field", "modifier-band"],
)
def test_every_malformed_table_is_refused_with_its_message(tmp_path, capsys, edits, message):
    lines = [edits.get(lineno, line) for lineno, line in enumerate(_MINIMAL_TABLE, start=1)]
    with pytest.raises(SlotTableError, match=rf"^{re.escape(message)}$"):
        load_slot_table("\n".join(lines))
    path = tmp_path / "table.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    # The table loads before the clause is read, so the clause file need not exist.
    assert main(["--slot-table", str(path), "generate", "--clause", str(tmp_path / "clause.json")]) == 1
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_shipped_table_is_cached():
    assert build_slot_table() is build_slot_table()
