import itertools
import re

import pytest
from hypothesis import given, strategies as st

from wortfolge import Category, ClauseSpec, ClauseType, Tag, VerbComplex
from wortfolge.cli import main
from wortfolge.linearize import CompiledClause, CooccurrenceViolation
from wortfolge.slots import (
    NoSlotError,
    SlotTableError,
    SortKey,
    all_sort_keys,
    build_slot_table,
    load_slot_table,
    sort_key,
)

from .conftest import c, modifier


def _slot(table, constituent, tag=None, lex=None):
    return sort_key(table, constituent, 0, tag=tag, lex=lex).slot


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
    key_a = sort_key(table, a, 0)
    key_d = sort_key(table, d, 1)
    assert key_a.slot == key_d.slot
    assert key_a.sub_rank < key_d.sub_rank


# --- sort_key ----------------------------------------------------------------

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
    wohl = modifier("wohl", "wohl", 33)
    with pytest.raises(NoSlotError):
        sort_key(table, wohl, 0, tag=Tag.RHEME, lex=lex)


def test_rheme_on_personal_pronoun_has_no_slot(table):
    for category in ("N", "A", "D"):
        pron = c("p", category, "es", pron=True)
        with pytest.raises(NoSlotError):
            sort_key(table, pron, 0, tag=Tag.RHEME)


def test_rheme_on_genitive_pronoun_is_expressible(table):
    g = c("g", "G", "dessen", pron=True)
    assert _slot(table, g, tag=Tag.RHEME) == table.rheme_slot


def test_focused_object_pronoun_has_early_and_late_slots(table):
    ihn = c("ihn", "A", "ihn", pron=True)
    keys = all_sort_keys(table, ihn, 0, tag=Tag.FOCUS)
    assert [k.slot for k in keys] == list(table.focus_slots)
    # the early slot wins for the deterministic key
    assert sort_key(table, ihn, 0, tag=Tag.FOCUS).slot == table.focus_slots[0]


def test_focused_subject_pronoun_has_only_the_early_slot(table):
    ich = c("ich", "N", "ich", pron=True)
    keys = all_sort_keys(table, ich, 0, tag=Tag.FOCUS)
    assert [k.slot for k in keys] == [table.focus_slots[0]]


def test_negation_cannot_take_late_focus_slot(table):
    nicht = modifier("nicht", "nicht", 41)
    with pytest.raises(NoSlotError):
        sort_key(table, nicht, 0, tag=Tag.FOCUS)


def test_svc_part_matches_only_final_slot(table):
    svc = c("antwort", "A", "Antwort", svc=True)
    assert _slot(table, svc) == table.slot_count
    with pytest.raises(NoSlotError):
        sort_key(table, svc, 0, tag=Tag.RHEME)


# --- SortKey ordering -----------------------------------------------------------

def test_modifier_indexes_order_within_a_band(table):
    dennoch = modifier("dennoch", "dennoch", 20)
    ebenfalls = modifier("ebenfalls", "ebenfalls", 35)
    ka = sort_key(table, dennoch, 0)
    kb = sort_key(table, ebenfalls, 1)
    assert ka < kb


def test_pragmatic_band_precedes_situative_band(table):
    deshalb = modifier("deshalb", "deshalb", 22)
    gestern = modifier("gestern", "gestern", 26)
    assert sort_key(table, deshalb, 0) < sort_key(table, gestern, 1)


def test_equal_indexes_keep_input_order(table):
    gestern = modifier("gestern", "gestern", 26)
    damals = modifier("damals", "damals", 26)
    ka = sort_key(table, gestern, 0)
    kb = sort_key(table, damals, 1)
    assert ka < kb
    assert kb > ka and not kb < ka


def test_untagged_sort_reproduces_the_three_modifier_order(table, ex6_clause):
    keyed = sorted(
        (sort_key(table, con, i), con.id)
        for i, con in enumerate(ex6_clause.constituents)
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
        key = sort_key(table, constituent, 0)
        assert 1 <= key.slot <= table.slot_count


def test_late_focus_slot_follows_every_row5_slot(table):
    row5_slots = {p.slot for p in table.patterns if p.row == 5}
    assert row5_slots
    assert all(table.focus_slots[-1] > slot for slot in row5_slots)


def _typically_rhematic(table, lex, constituent):
    spec = ClauseSpec(ClauseType.VF, VerbComplex(("hat",)), (constituent,))
    return CompiledClause(spec, {}, lex, table).typically_rhematic[0]


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
    from dataclasses import replace

    spec = replace(
        ex5_clause,
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


# --- comparator laws (hypothesis) ---------------------------------------------

sort_keys = st.builds(
    SortKey,
    slot=st.integers(1, 27),
    sub_rank=st.integers(1, 2),
    hoberg=st.integers(0, 44),
    input_ordinal=st.integers(0, 9),
)


@given(sort_keys, sort_keys, sort_keys)
def test_key_comparison_is_a_total_order(a, b, c_):
    assert (a < b) == (not b <= a)
    if a < b and b < c_:
        assert a < c_
    assert sorted([a, b, c_]) == sorted([c_, b, a])


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
         "dense", "theme", "rheme", "focus", "landmark-order", "late-field", "modifier-band"],
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
