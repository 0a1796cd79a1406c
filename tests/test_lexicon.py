import pytest

from wortfolge.lexicon import (
    Lexicon,
    LexiconError,
    NO_NEGATION,
    load_lexicon,
)

ROW = "vielleicht\t12\t12\t0\t0\t1\t-\t0\tprobably\n"
HOMONYM_ROW = "eher\t5\t5\t0\t0\t0\tNO_NEGATION\t1\trather\n"


def _readings(lex, lemma):
    return [entry for entry in lex.entries() if entry.lemma == lemma]


def test_load_single_row():
    lex = load_lexicon(ROW)
    (entry,) = lex.entries()
    assert entry.key == "vielleicht#12"
    assert entry.hoberg_index == 12
    assert not entry.rhematic and not entry.focusable and entry.vorfeld_capable


def test_load_constraint_row():
    lex = load_lexicon(HOMONYM_ROW)
    (entry,) = lex.entries()
    assert entry.constraints == {NO_NEGATION}
    assert entry.inferred


def test_empty_stream_gives_empty_lexicon():
    lex = load_lexicon("")
    assert lex.entries() == ()
    assert lex.get("anything#1") is None


def test_comments_and_blank_lines_skipped():
    lex = load_lexicon("# header\n\n" + ROW)
    assert [entry.key for entry in lex.entries()] == ["vielleicht#12"]


def test_homonym_lookup_returns_both_readings(lex):
    assert {e.hoberg_index for e in _readings(lex, "eher")} == {26, 5}
    assert lex.get("eher#26").hoberg_index == 26


def test_single_reading_lookup(lex):
    (entry,) = _readings(lex, "gestern")
    assert entry.hoberg_index == 26


def test_unknown_lemma_lookup(lex):
    assert _readings(lex, "xyzzy") == []


def test_key_resolution(lex):
    assert lex.get("eher#5").hoberg_index == 5
    assert lex.get("eher#99") is None


@pytest.mark.parametrize(
    "lemma,index",
    [
        ("vielleicht", 12),
        ("dennoch", 20),
        ("deshalb", 22),
        ("morgen", 26),
        ("gestern", 26),
        ("damals", 26),
        ("ebenfalls", 35),
        ("oft", 37),
        ("überstürzt", 43),
        ("ohnehin", 9),
        ("nicht", 41),
    ],
)
def test_attested_position_classes(lex, lemma, index):
    readings = _readings(lex, lemma)
    assert len(readings) == 1
    assert readings[0].hoberg_index == index


def test_malformed_row_names_line():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("# comment\nbad row without tabs\n")


def test_duplicate_key_rejected():
    with pytest.raises(LexiconError, match="duplicate"):
        load_lexicon(ROW + ROW)


def test_lexicon_refuses_a_duplicate_entry():
    # load_lexicon refuses a repeated key with its line; the map refuses one given directly.
    (entry,) = load_lexicon(ROW).entries()
    with pytest.raises(LexiconError, match="^duplicate entry vielleicht#12$"):
        Lexicon([entry, entry])


def test_bad_index_rejected():
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon("x\t1\t99\t1\t1\t1\t-\t0\tgloss\n")


def test_unknown_constraint_rejected():
    with pytest.raises(LexiconError, match="unknown constraint"):
        load_lexicon("x\t1\t1\t1\t1\t1\tNO_SUCH\t0\tgloss\n")


def test_bad_boolean_rejected():
    with pytest.raises(LexiconError, match="rhematic"):
        load_lexicon("x\t1\t1\t2\t1\t1\t-\t0\tgloss\n")


def test_each_lexicon_key_is_resolved_once(corpus, lex, table, monkeypatch):
    # analyze, rank_readings and a refused linearize read every entry off
    # their one compiled clause: one lookup per keyed constituent.
    from wortfolge import InexpressibleTags, Tag, analyze, linearize, rank_readings
    from wortfolge.documents import Mode
    from wortfolge.lexicon import Lexicon

    lookups = []
    get = Lexicon.get
    monkeypatch.setattr(Lexicon, "get", lambda self, key: lookups.append(key) or get(self, key))

    def keyed(clauses):
        return sum(c.lexicon_key is not None for clause in clauses for c in clause.constituents)

    docs = {case.case_id: case.doc for case in corpus}
    analyzed = 0
    for doc in docs.values():
        if doc.mode is Mode.ANALYZE:
            lookups.clear()
            analyze(doc.clause, lex, table)
            assert len(lookups) == keyed([doc.clause])
            analyzed += 1
    assert analyzed > 0

    for case_id, expected in (("ex-13", 4), ("ex-14", 3), ("ex-15", 2)):
        candidates = docs[case_id].candidates
        assert keyed(cand.clause for cand in candidates) == expected
        lookups.clear()
        rank_readings(candidates, lex, table)
        assert len(lookups) == expected, case_id

    spec = docs["ex-12a"].clause
    lookups.clear()
    with pytest.raises(InexpressibleTags, match="wohl is lexically non-rhematic"):
        linearize(spec, {"wohl": Tag.RHEME}, lex, table)
    assert len(lookups) == keyed([spec]) == 2
