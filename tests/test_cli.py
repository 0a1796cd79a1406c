import json
import os
import re
from importlib import resources

import pytest

from wortfolge.cli import main

CORPUS = resources.files("wortfolge.data").joinpath("corpus.json")

GENERATE_5A = {
    "schema_version": "1",
    "mode": "GENERATE",
    "payload": {
        "clause": {
            "clause_type": "V2",
            "verb": {"finite": ["habe"], "nonfinite": ["gesehen"]},
            "constituents": [
                {"id": "ich", "category": "N", "surface": ["ich"], "features": {"pronominal": True}},
                {"id": "den-mann", "category": "A", "surface": ["den", "Mann"],
                 "features": {"definite": "+", "animate": "+"}},
                {"id": "gestern", "category": "M", "surface": ["gestern"],
                 "hoberg_index": 26, "lexicon_key": "gestern#26"},
            ],
        },
        "tags": {},
    },
}

OBSERVED_2C = {
    "clause_type": "V2",
    "verb": {"finite": ["fuhr"]},
    "constituents": [
        {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
        {"id": "ebenfalls", "category": "M", "surface": ["ebenfalls"], "hoberg_index": 35,
         "lexicon_key": "ebenfalls#35"},
        {"id": "dennoch", "category": "M", "surface": ["dennoch"], "hoberg_index": 20,
         "lexicon_key": "dennoch#20"},
        {"id": "nach-muenchen", "category": "DIR", "surface": ["nach", "München"]},
    ],
}


@pytest.fixture
def clause_file(tmp_path):
    path = tmp_path / "clause.json"
    path.write_text(json.dumps(GENERATE_5A), encoding="utf-8")
    return str(path)


OBSERVED_DOC = {"schema_version": "1", "mode": "ANALYZE", "payload": {"observed": OBSERVED_2C}}
CANDIDATES_DOC = {
    "schema_version": "1",
    "mode": "DISAMBIGUATE",
    "payload": {"candidates": [{"label": "only", "observed": OBSERVED_2C}]},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_generate_default_order(clause_file, capsys):
    assert main(["generate", "--clause", clause_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["text"] == "Ich habe den Mann gestern gesehen"
    assert report["vorfeld"] == "ich"


def test_generate_output_is_byte_deterministic(clause_file, capsys):
    main(["generate", "--clause", clause_file])
    first = capsys.readouterr().out
    main(["generate", "--clause", clause_file])
    assert capsys.readouterr().out == first


def test_generate_with_tags(clause_file, tmp_path, capsys):
    tags = _write(tmp_path, "tags.json", {"den-mann": "RHEME"})
    assert main(["generate", "--clause", clause_file, "--tags", tags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["text"] == "Ich habe gestern den Mann gesehen"


def test_generate_honours_document_embedded_tags(tmp_path, capsys):
    doc = json.loads(json.dumps(GENERATE_5A))
    doc["payload"]["tags"] = {"den-mann": "RHEME"}
    path = _write(tmp_path, "doc.json", doc)
    assert main(["generate", "--clause", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["text"] == "Ich habe gestern den Mann gesehen"


def test_generate_all_variants(clause_file, tmp_path, capsys):
    assert main(["generate", "--clause", clause_file, "--all-variants"]) == 0
    report = json.loads(capsys.readouterr().out)
    rendered = {tuple(v["order"]) for v in report["variants"]}
    assert ("ich", "den-mann", "gestern") in rendered
    assert ("gestern", "ich", "den-mann") in rendered

    # A malformed assignment is refused as in plain generation, with the
    # same exit code and output; a valid one stays ignored.
    cases = json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]
    clause = _write(tmp_path, "ex1e.json", next(c["doc"] for c in cases if c["case_id"] == "ex-1e"))
    cooccurrence = {"error": {"message": "focus slot admits one constituent: ich, ihn",
                              "type": "CooccurrenceViolation"}}
    invalid = "input error: invalid assignment: "
    for tags, code, out, err in [
        ({"niemand": "THEME"}, 1, "", invalid + "unknown constituent id 'niemand'\n"),
        ({"ich": "RHEME", "ihn": "RHEME"}, 1, "", invalid + "rheme cardinality: ich, ihn\n"),
        ({"ich": "FOCUS", "ihn": "FOCUS"}, 2, json.dumps(cooccurrence, sort_keys=True) + "\n", ""),
        ({"ich": "FOCUS", "niemand": "FOCUS"}, 1, "",
         invalid + "unknown constituent id 'niemand'; focus cardinality: ich, niemand\n"),
    ]:
        argv = ["generate", "--clause", clause, "--tags", _write(tmp_path, "tags.json", tags)]
        for extra in ([], ["--all-variants"]):
            assert main(argv + extra) == code, (tags, extra)
            assert capsys.readouterr() == (out, err), (tags, extra)
    argv = ["generate", "--clause", clause, "--tags", _write(tmp_path, "tags.json", {"ihn": "RHEME"})]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--all-variants"]) == 0
    assert json.loads(capsys.readouterr().out)["variant_count"] == 12


def test_json_flag_is_the_default_output(clause_file, capsys):
    assert main(["generate", "--clause", clause_file, "--json"]) == 0
    explicit = capsys.readouterr().out
    main(["generate", "--clause", clause_file])
    assert capsys.readouterr().out == explicit


def test_conflicting_output_flags_are_an_input_error(clause_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--clause", clause_file, "--pretty", "--json"])
    assert exc.value.code == 1


def test_generate_pretty_mode_prints_interlinear_gloss(clause_file, capsys):
    assert main(["generate", "--clause", clause_file, "--pretty"]) == 0
    top, glosses = capsys.readouterr().out.splitlines()[:2]
    assert top.split() == ["Ich", "habe", "den", "Mann", "gestern", "gesehen"]
    assert glosses.split() == ["N:pron", "V", "A+d+a", "M26", "V"]


def test_generate_pretty_glosses_a_support_verb_part(tmp_path, capsys):
    # An SVC part keeps only its flag in the gloss, without definiteness or animacy.
    doc = json.loads(json.dumps(GENERATE_5A))
    doc["payload"]["clause"] = {
        "clause_type": "V2",
        "verb": {"finite": ["stellt"]},
        "constituents": [
            {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
            {"id": "frage", "category": "A", "surface": ["eine", "Frage"], "features": {"svc": True}},
            {"id": "morgen", "category": "M", "surface": ["morgen"], "hoberg_index": 26, "lexicon_key": "morgen#26"},
        ],
    }
    assert main(["generate", "--clause", _write(tmp_path, "svc.json", doc), "--pretty"]) == 0
    top, glosses = capsys.readouterr().out.splitlines()[:2]
    assert top.split() == ["Er", "stellt", "morgen", "eine", "Frage"]
    assert glosses == "N:pron  V       M26     A:svc"


def test_duplicate_nominative_is_a_generation_error(tmp_path, capsys):
    doc = json.loads(json.dumps(GENERATE_5A))
    doc["payload"]["clause"]["constituents"].append(
        {"id": "die-frau", "category": "N", "surface": ["die", "Frau"],
         "features": {"definite": "+", "animate": "+"}}
    )
    path = _write(tmp_path, "bad.json", doc)
    assert main(["generate", "--clause", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "CooccurrenceViolation"


def test_inexpressible_tags_exit_code(clause_file, tmp_path, capsys):
    tags = _write(tmp_path, "tags.json", {"ich": "RHEME"})
    assert main(["generate", "--clause", clause_file, "--tags", tags]) == 2


def test_malformed_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--clause", str(path)]) == 1


def test_missing_file_is_an_input_error(capsys):
    assert main(["generate", "--clause", "/no/such/file.json"]) == 1


def test_analyze_ungrammatical_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "obs.json", OBSERVED_2C)
    assert main(["analyze", "--observed", path]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "UNGRAMMATICAL"



def test_analyze_pretty_prints_the_finite_verb_of_an_empty_v2_clause(tmp_path, capsys):
    obs = {"clause_type": "V2", "verb": {"finite": ["regnet"]}, "constituents": []}
    assert main(["analyze", "--observed", _write(tmp_path, "obs.json", obs), "--pretty"]) == 3
    assert capsys.readouterr().out.splitlines()[:3] == ["regnet", "V", "verdict: UNGRAMMATICAL"]


def _columns(pretty_out):
    """The interlinear columns of a ``--pretty`` report: (lowercased text, gloss without its tag)."""
    top, bottom = pretty_out.splitlines()[:2]
    glosses = [re.sub(r"\+(theme|rheme|focus)$", "", gloss) for gloss in bottom.split()]
    return list(zip(re.split(r" {2,}", top.lower()), glosses))


def test_generate_and_analyze_pretty_print_the_same_fields(tmp_path, capsys):
    # ex-5d is verb-final with a non-finite verb: both commands lay out the
    # same fields, each verb part in its own column.
    case = next(case for case in json.loads(CORPUS.read_text("utf-8"))["cases"] if case["case_id"] == "ex-5d")
    clause_path = _write(tmp_path, "clause.json", case["doc"])
    assert main(["generate", "--clause", clause_path]) == 0
    order = json.loads(capsys.readouterr().out)["mittelfeld"]
    assert main(["generate", "--clause", clause_path, "--pretty"]) == 0
    generated = _columns(capsys.readouterr().out)
    clause = case["doc"]["payload"]["clause"]
    by_id = {con["id"]: con for con in clause["constituents"]}
    observed = dict(clause, constituents=[by_id[cid] for cid in order])
    assert main(["analyze", "--observed", _write(tmp_path, "obs.json", observed), "--pretty"]) == 0
    analyzed = _columns(capsys.readouterr().out)
    assert generated == analyzed == [
        ("weil", "C"), ("gestern", "M26"), ("ich", "N:pron"), ("den mann", "A+d+a"), ("gesehen", "V"), ("habe", "V"),
    ]


def _two_subjects(observed):
    obs = json.loads(json.dumps(observed))
    obs["constituents"].append({"id": "sie", "category": "N", "surface": ["sie"], "features": {"pronominal": True}})
    return obs


@pytest.mark.parametrize(
    "command, stress",
    [("analyze", []), ("disambiguate", []), ("analyze", ["er", "sie"]), ("disambiguate", ["er", "sie"])],
    ids=["analyze", "disambiguate", "analyze-two-marks", "disambiguate-two-marks"],
)
def test_cooccurrence_violation_is_a_generation_error(tmp_path, capsys, command, stress):
    # The contract: exit 2 with the JSON error object on stdout, as for generate,
    # also when the stress marks alone would leave the clause unexplained.
    obs = _two_subjects(OBSERVED_2C)
    obs["stress"] = stress
    if command == "analyze":
        argv = ["analyze", "--observed", _write(tmp_path, "obs.json", obs)]
    else:
        argv = ["disambiguate", "--candidates", _write(tmp_path, "cands.json", [{"label": "two", "observed": obs}])]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "error": {"type": "CooccurrenceViolation", "message": "nominative alternatives cannot cooccur: er, sie"}
    }
    assert err == ""


def test_invalid_clause_with_two_stress_marks_is_an_input_error(tmp_path, capsys):
    obs = json.loads(json.dumps(OBSERVED_2C))
    obs["constituents"].append({"id": "kaum", "category": "M", "surface": ["kaum"], "hoberg_index": 50})
    obs["stress"] = ["er", "kaum"]
    assert main(["analyze", "--observed", _write(tmp_path, "obs.json", obs)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: invalid clause spec: kaum: Hoberg index 50 outside 1..44\n"


def test_analyze_grammatical(tmp_path, capsys):
    obs = json.loads(json.dumps(OBSERVED_2C))
    obs["constituents"][1], obs["constituents"][2] = obs["constituents"][2], obs["constituents"][1]
    path = _write(tmp_path, "obs.json", obs)
    assert main(["analyze", "--observed", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "GRAMMATICAL_UNMARKED"
    assert report["theme"] == "er"
    assert report["rheme"] == "nach-muenchen"


def test_analyze_has_no_clause_size_cap(tmp_path, capsys):
    objects = [{"id": f"po{i}", "category": "PO", "surface": ["an", f"x{i}"],
                "features": {"definite": "+", "animate": "-"}} for i in range(11)]
    obs = {"clause_type": "V2", "verb": {"finite": ["hat"]}, "constituents": objects}
    assert main(["analyze", "--observed", _write(tmp_path, "obs.json", obs)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "GRAMMATICAL_UNMARKED"


def test_disambiguate_command(tmp_path, capsys):
    candidates = [
        {
            "label": "eher#26",
            "constraint_context": ["NEGATED"],
            "observed": {
                "clause_type": "V2",
                "verb": {"finite": ["sollte"], "nonfinite": ["kommen"]},
                "constituents": [
                    {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
                    {"id": "nicht", "category": "M", "surface": ["nicht"], "hoberg_index": 41,
                     "lexicon_key": "nicht#41"},
                    {"id": "eher", "category": "M", "surface": ["eher"], "hoberg_index": 26,
                     "lexicon_key": "eher#26"},
                ],
            },
        },
        {
            "label": "eher#5",
            "constraint_context": ["NEGATED"],
            "observed": {
                "clause_type": "V2",
                "verb": {"finite": ["sollte"], "nonfinite": ["kommen"]},
                "constituents": [
                    {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
                    {"id": "nicht", "category": "M", "surface": ["nicht"], "hoberg_index": 41,
                     "lexicon_key": "nicht#41"},
                    {"id": "eher", "category": "M", "surface": ["eher"], "hoberg_index": 5,
                     "lexicon_key": "eher#5"},
                ],
            },
        },
    ]
    path = _write(tmp_path, "cands.json", candidates)
    assert main(["disambiguate", "--candidates", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in report["readings"]] == ["eher#26", "eher#5"]
    assert report["readings"][1]["constraint_ok"] is False


def test_corpus_run_shipped_file(capsys):
    path = str(resources.files("wortfolge.data").joinpath("corpus.json"))
    assert main(["corpus", "run", path]) == 0
    out = capsys.readouterr().out
    assert "ex-5a: PASS" in out
    assert "expected-mismatch 2" in out


def test_corpus_filter(capsys):
    path = str(resources.files("wortfolge.data").joinpath("corpus.json"))
    assert main(["corpus", "run", path, "--filter", "ex-2c"]) == 0
    out = capsys.readouterr().out
    assert "ex-2c: PASS" in out
    assert "total 1" in out


def test_corpus_missing_file(capsys):
    assert main(["corpus", "run", "/no/such/corpus.json"]) == 1


def test_corpus_empty_file(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", {"cases": []})
    assert main(["corpus", "run", path]) == 0


def test_corpus_failing_case_names_it(tmp_path, capsys):
    case = {
        "case_id": "synthetic-fail",
        "doc": {"schema_version": "1", "mode": "GENERATE",
                "payload": {"clause": GENERATE_5A["payload"]["clause"], "tags": {}}},
        "expected": {"rendered": ["Voellig", "falsch"]},
    }
    path = _write(tmp_path, "corpus.json", {"cases": [case]})
    assert main(["corpus", "run", path]) == 4
    out = capsys.readouterr().out
    assert "synthetic-fail: FAIL" in out


def _corpus_case(**fields):
    case = {
        "case_id": "synthetic",
        "doc": {"schema_version": "1", "mode": "GENERATE",
                "payload": {"clause": GENERATE_5A["payload"]["clause"], "tags": {}}},
    }
    case.update(fields)
    return case


@pytest.mark.parametrize(
    "corpus, message",
    [
        ({"cases": 5}, "corpus: expected an object with a 'cases' list"),
        ({"cases": [5]}, "cases[0]: expected an object"),
        ({"cases": [_corpus_case(flags=[])]}, "cases[0].flags: must be an object"),
        ({"cases": [_corpus_case(expected="x")]}, "cases[0].expected: must be an object"),
        ({"cases": [_corpus_case(printed="ich")]}, "cases[0].printed: must be a list of strings"),
        ({"cases": [_corpus_case(printed_order=[1])]}, "cases[0].printed_order: must be a list of strings"),
        ({"cases": [_corpus_case(printed_stress=[["ich"]])]}, "cases[0].printed_stress: must be a list of strings"),
        ({"cases": [_corpus_case(expected={"analysis": None})]}, "cases[0].expected.analysis: must be an object"),
        ({"cases": [_corpus_case(expected={"rendered": [1]})]}, "cases[0].expected.rendered: must be a list of strings"),
        ({"cases": [_corpus_case(doc=CANDIDATES_DOC, expected={"readings": {"a": 1}})]},
         "cases[0].expected.readings.a: must be an object"),
        ({"cases": [_corpus_case(printed_order=["du"])]}, "cases[0].printed_order: names an unknown constituent"),
        ({"cases": [_corpus_case(printed_order=["ich"])]}, "cases[0].printed_order: must name every constituent once"),
        ({"cases": [_corpus_case(printed_stress=["nobody"])]}, "cases[0].printed_stress: unknown constituent id 'nobody'"),
        ({"cases": [_corpus_case(doc=OBSERVED_DOC, printed=["Nach", "Rom"])]},
         "cases[0].printed: only a GENERATE case has a printed line"),
        ({"cases": [_corpus_case(doc=OBSERVED_DOC, printed_order=["nobody"])]},
         "cases[0].printed_order: only a GENERATE case has a printed line"),
        ({"cases": [_corpus_case(doc=CANDIDATES_DOC, printed_stress=["nobody"])]},
         "cases[0].printed_stress: only a GENERATE case has a printed line"),
        ({"cases": [_corpus_case(flags={"expected_mismatchh": True})]},
         "cases[0].flags.expected_mismatchh: unknown flag"),
        ({"cases": [_corpus_case(flags={"expected_mismatch": "false"})]},
         "cases[0].flags.expected_mismatch: must be true or false"),
        ({"cases": [_corpus_case(expected={"renderd": ["nonsense"]})]},
         "cases[0].expected.renderd: never checked in GENERATE mode"),
        ({"cases": [_corpus_case(doc=OBSERVED_DOC, expected={"rendered": ["Nach", "Rom"]})]},
         "cases[0].expected.rendered: never checked in ANALYZE mode"),
        ({"cases": [_corpus_case(doc=CANDIDATES_DOC, expected={"analysis": {}})]},
         "cases[0].expected.analysis: never checked in DISAMBIGUATE mode"),
        ({"cases": [_corpus_case(printed=["x"], expected={"printed_analysis": {"verdict": "nonsense"}})]},
         "cases[0].printed: only an expected_mismatch case has a printed line"),
        ({"cases": [_corpus_case(printed_order=["gestern", "ich", "den-mann"])]},
         "cases[0].printed_order: only an expected_mismatch case has a printed line"),
        ({"cases": [_corpus_case(printed_stress=["ich"])]},
         "cases[0].printed_stress: only an expected_mismatch case has a printed line"),
        ({"cases": [_corpus_case(expected={"printed_analysis": {"verdict": "nonsense"}})]},
         "cases[0].expected.printed_analysis: only an expected_mismatch case has a printed line"),
        ({"cases": [_corpus_case(flags={"expected_mismatch": True}, printed=["x"],
                                 expected={"printed_analysis": {}})]},
         "cases[0].expected.printed_analysis: needs a printed_order"),
        ({"cases": [_corpus_case(flags={"expected_mismatch": True})]},
         "cases[0].printed: an expected_mismatch case must record its printed line"),
        ({"cases": [_corpus_case(expected={"vorfeld": 5})]}, "cases[0].expected.vorfeld: must be a string or null"),
        ({"cases": [_corpus_case(expect={"rendered": ["nonsense"]})]}, "cases[0].expect: unknown field"),
        ({"schema_version": "99", "cases": [_corpus_case()]}, "corpus: unsupported schema_version '99'"),
        ({"cases": [_corpus_case()], "extra": True}, "corpus.extra: unknown field"),
        ({"cases": [_corpus_case(), _corpus_case()]}, "cases[1]: duplicate case_id 'synthetic'"),
        ({"cases": [{"case_id": "synthetic"}]}, "cases[0]: missing doc"),
    ],
    ids=["cases", "case", "flags", "expected", "printed", "printed_order", "printed_stress",
         "expected-analysis", "expected-rendered", "expected-readings", "printed-order-id", "printed-order-partial",
         "printed-stress-id", "printed-analyze", "printed-order-analyze", "printed-stress-disambiguate",
         "unknown-flag", "non-boolean-flag", "misspelt-expected", "rendered-analyze", "analysis-disambiguate",
         "printed-unflagged", "printed-order-unflagged", "printed-stress-unflagged", "printed-analysis-unflagged",
         "printed-analysis-without-order", "flagged-without-printed", "vorfeld-type", "misspelt-expect",
         "schema-version", "unknown-top-level-field", "duplicate-case-id", "missing-doc"],
)
def test_malformed_corpus_is_an_input_error(tmp_path, capsys, corpus, message):
    assert main(["corpus", "run", _write(tmp_path, "corpus.json", corpus)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "extra, failure",
    [
        ({"id": "sie", "category": "N", "surface": ["sie"], "features": {"pronominal": True}},
         "failed: nominative alternatives cannot cooccur: ich, sie"),
        ({"id": "bald", "category": "M", "surface": ["bald"], "hoberg_index": 25, "lexicon_key": "bald#25"},
         "bald: lexicon has no reading 'bald#25' (lemma 'bald')"),
        # The compiled clause checks every token, so a blank one fails its
        # case as an unresolved key does, instead of refusing the corpus.
        ({"id": "bald", "category": "M", "surface": ["bald", " "], "hoberg_index": 25},
         "failed: invalid clause spec: bald: blank or non-string surface token"),
    ],
    ids=["cooccurrence", "unresolved-key", "blank-token"],
)
@pytest.mark.parametrize("mode", ["GENERATE", "ANALYZE"])
def test_engine_refusal_fails_the_corpus_case(tmp_path, capsys, extra, failure, mode):
    clause = json.loads(json.dumps(GENERATE_5A["payload"]["clause"]))
    clause["constituents"].append(extra)
    key = "clause" if mode == "GENERATE" else "observed"
    case = _corpus_case(expected={"analysis": {"verdict": "GRAMMATICAL_UNMARKED"}})
    case["doc"] = {"schema_version": "1", "mode": mode, "payload": {key: clause}}
    assert main(["corpus", "run", _write(tmp_path, "corpus.json", {"cases": [case]})]) == 4
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "synthetic: FAIL"
    assert out.splitlines()[1].endswith(failure)
    assert err == ""


def _clause_with(edit):
    clause = json.loads(json.dumps(GENERATE_5A["payload"]["clause"]))
    edit(clause)
    return clause


_LEXICON_ROW = "gestern\t26\t26\t1\t1\t1\t-\t0\tyesterday\n"
#: How Python describes a file that opens with a 0xff byte, read as UTF-8.
_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_VERB = {"id": "hat", "category": "V_FIN", "surface": ["hat"]}
_CLAUSE = GENERATE_5A["payload"]["clause"]
#: JSON nested deeper than the interpreter's recursion limit.
_DEEP = "[" * 200_000


def _recursion_message(text):
    """How the JSON parser of this interpreter refuses ``text``; the wording varies by version."""
    try:
        json.loads(text)
    except RecursionError as err:
        return str(err)
    raise AssertionError("the text parsed")


_TOO_DEEP = _recursion_message(_DEEP)
#: Per documented input error: the arguments (a name among the files stands
#: for its path), the files, the exit code, stdout and stderr.
INPUT_ERRORS = {
    "filter-matches-nothing": (
        ["corpus", "run", str(CORPUS), "--filter", "nope"], {}, 1,
        "total 0, passed 0, failed 0, expected-mismatch 0\n", "no case matches 'nope'\n",
    ),
    "every-candidate-excluded": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": [{"label": "a", "np_attachment": {"head_is_pronoun": True}}]}, 1,
        "", "input error: no constructible candidate readings\n",
    ),
    "features-not-object": (
        ["generate", "--clause", "in.json"],
        {"in.json": _clause_with(lambda c: c["constituents"][0].update(features="x"))}, 1,
        "", "input error: clause.constituents[0](ich): features must be an object\n",
    ),
    "stress-not-list": (
        ["analyze", "--observed", "in.json"], {"in.json": _clause_with(lambda c: c.update(stress="ich"))}, 1,
        "", "input error: observed.stress: must be a list of constituent ids\n",
    ),
    "unknown-clause-type": (
        ["generate", "--clause", "in.json"], {"in.json": _clause_with(lambda c: c.update(clause_type="V3"))}, 1,
        "", "input error: clause: unknown clause_type 'V3'\n",
    ),
    "tags-not-object": (
        ["generate", "--clause", "in.json"], {"in.json": {"clause": GENERATE_5A["payload"]["clause"], "tags": ["ich"]}},
        1, "", "input error: tags: must be an object mapping ids to tags\n",
    ),
    "candidates-empty": (
        ["disambiguate", "--candidates", "in.json"], {"in.json": []}, 1,
        "", "input error: candidates: must be a non-empty list\n",
    ),
    "candidates-not-list": (
        ["disambiguate", "--candidates", "in.json"], {"in.json": {"candidates": "x"}}, 1,
        "", "input error: candidates: must be a non-empty list\n",
    ),
    "candidate-label-duplicate": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": [{"label": "a", "observed": _CLAUSE}, {"label": "b", "observed": _CLAUSE},
                     {"label": "a", "observed": _CLAUSE}]}, 1,
        "", "input error: candidates[2].label: duplicate label 'a'\n",
    ),
    "candidate-label-duplicate-of-excluded": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": [{"label": "a", "np_attachment": {"head_is_pronoun": True}}, {"label": "a", "observed": _CLAUSE}]},
        1, "", "input error: candidates[1].label: duplicate label 'a'\n",
    ),
    "candidate-label-empty": (
        ["disambiguate", "--candidates", "in.json"], {"in.json": [{"label": "", "observed": _CLAUSE}]}, 1,
        "", "input error: candidates[0].label: must not be empty\n",
    ),
    "verb-constituent": (
        ["generate", "--clause", "in.json"], {"in.json": _clause_with(lambda c: c["constituents"].append(_VERB))}, 1,
        "", "input error: clause.constituents[3](hat): unknown category 'V_FIN'\n",
    ),
    "deep-json-generate": (
        ["generate", "--clause", "in.json"], {"in.json": _DEEP}, 1,
        "", f"input error: in.json: invalid JSON ({_TOO_DEEP})\n",
    ),
    "deep-json-corpus": (
        ["corpus", "run", "in.json"], {"in.json": _DEEP}, 1, "", f"input error: corpus: invalid JSON ({_TOO_DEEP})\n",
    ),
    "lexicon-duplicate-entry": (
        ["--lexicon", "lex.tsv", "generate", "--clause", "in.json"],
        {"lex.tsv": _LEXICON_ROW * 2, "in.json": GENERATE_5A}, 1,
        "", "input error: line 2: duplicate entry gestern#26\n",
    ),
    "lexicon-empty-lemma": (
        ["--lexicon", "lex.tsv", "generate", "--clause", "in.json"],
        {"lex.tsv": _LEXICON_ROW.removeprefix("gestern"), "in.json": GENERATE_5A}, 1,
        "", "input error: line 1: empty lemma or reading_id\n",
    ),
    "lexicon-bad-hoberg-index": (
        ["--lexicon", "lex.tsv", "generate", "--clause", "in.json"],
        {"lex.tsv": _LEXICON_ROW.replace("\t26\t26", "\t26\tx"), "in.json": GENERATE_5A}, 1,
        "", "input error: line 1: bad Hoberg index 'x'\n",
    ),
    "clause-not-utf8": (
        ["generate", "--clause", "in.json"], {"in.json": b"\xff{}"}, 1,
        "", f"input error: in.json: invalid UTF-8 ({_NOT_UTF8})\n",
    ),
    "lexicon-not-utf8": (
        ["--lexicon", "lex.tsv", "generate", "--clause", "in.json"],
        {"lex.tsv": b"\xff" + _LEXICON_ROW.encode(), "in.json": GENERATE_5A}, 1,
        "", f"input error: lex.tsv: invalid UTF-8 ({_NOT_UTF8})\n",
    ),
    "unknown-document-field": (
        ["generate", "--clause", "in.json"], {"in.json": {**GENERATE_5A, "comment": "5a"}}, 1,
        "", "input error: document.comment: unknown field\n",
    ),
    "unknown-payload-field-generate": (
        ["generate", "--clause", "in.json"], {"in.json": {"clause": _CLAUSE, "tag": {"ich": "THEME"}}}, 1,
        "", "input error: payload.tag: unknown field\n",
    ),
    "unknown-payload-field-analyze": (
        ["analyze", "--observed", "in.json"], {"in.json": {"observed": _CLAUSE, "tags": {}}}, 1,
        "", "input error: payload.tags: unknown field\n",
    ),
    "unknown-payload-field-disambiguate": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": {"candidates": [{"label": "a", "observed": _CLAUSE}], "excluded": []}}, 1,
        "", "input error: payload.excluded: unknown field\n",
    ),
    "unknown-candidate-field": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": [{"label": "a", "observed": _CLAUSE, "constraints": ["NEGATED"]}]}, 1,
        "", "input error: candidates[0].constraints: unknown field\n",
    ),
    "unknown-np-attachment-field": (
        ["disambiguate", "--candidates", "in.json"],
        {"in.json": [{"label": "a", "observed": _CLAUSE, "np_attachment": {"head_is_pronoun": False, "head": "ihn"}}]},
        1, "", "input error: candidates[0].np_attachment.head: unknown field\n",
    ),
}


@pytest.mark.parametrize("name", list(INPUT_ERRORS))
def test_documented_input_errors(tmp_path, capsys, name):
    argv, files, code, out, err = INPUT_ERRORS[name]
    for file, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / file).write_bytes(content)
        else:
            (tmp_path / file).write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    assert main(argv) == code
    printed, message = capsys.readouterr()
    # A message names a file by its path; the table names it by its file name.
    assert (printed, message.replace(f"{tmp_path}{os.sep}", "")) == (out, err)


def test_lexicon_env_var(clause_file, tmp_path, capsys, monkeypatch):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("gestern\t26\t26\t1\t1\t1\t-\t0\tyesterday\n", encoding="utf-8")
    monkeypatch.setenv("WORTFOLGE_LEXICON", str(lexicon))
    assert main(["generate", "--clause", clause_file]) == 0


def test_explicit_slot_table(clause_file, capsys):
    path = str(resources.files("wortfolge.data").joinpath("slot_table.tsv"))
    assert main(["--slot-table", path, "generate", "--clause", clause_file]) == 0


#: Per mode: the command's file flag and the payload field that holds its input.
INPUTS = {
    "GENERATE": ("--clause", "clause"),
    "ANALYZE": ("--observed", "observed"),
    "DISAMBIGUATE": ("--candidates", "candidates"),
}
#: Per mode: a valid document, its payload with the field missing (the value
#: the field would hold, or one candidate), and a document of another mode.
ENVELOPES = {
    "GENERATE": (GENERATE_5A, GENERATE_5A["payload"]["clause"], OBSERVED_DOC),
    "ANALYZE": (OBSERVED_DOC, OBSERVED_2C, GENERATE_5A),
    "DISAMBIGUATE": (CANDIDATES_DOC, CANDIDATES_DOC["payload"]["candidates"][0], GENERATE_5A),
}
ENVELOPE_ERRORS = {
    "version-2": "document: unsupported schema_version '2'",
    "no-version": "document: missing field 'schema_version'",
    "no-field": "payload: missing field {field!r}",
    "other-mode": "document mode {other}, expected {mode}",
    "no-payload": "document: missing field 'payload'",
}


@pytest.mark.parametrize("mode", list(ENVELOPES))
@pytest.mark.parametrize("case", list(ENVELOPE_ERRORS))
def test_every_command_checks_the_document_envelope(tmp_path, capsys, mode, case):
    # An input with any envelope field is read as a full document, whatever
    # the command, and refused with the parser's message.
    doc, unkeyed, other = ENVELOPES[mode]
    doc = json.loads(json.dumps(other if case == "other-mode" else doc))
    if case == "version-2":
        doc["schema_version"] = "2"
    elif case == "no-version":
        del doc["schema_version"]
    elif case == "no-field":
        doc["payload"] = unkeyed
    elif case == "no-payload":
        doc.update(doc.pop("payload"))
    flag, field = INPUTS[mode]
    message = ENVELOPE_ERRORS[case].format(field=field, other=other["mode"], mode=mode)
    assert main([mode.lower(), flag, _write(tmp_path, "doc.json", doc)]) == 1
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_full_keyed_and_bare_inputs_are_read_alike(tmp_path, capsys):
    # Every shipped corpus document, run as a full document, as its payload
    # object ({field: value}, for GENERATE with its tags) and as the bare
    # field value (for GENERATE with its tags in a --tags file).
    for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]:
        doc = case["doc"]
        flag, field = INPUTS[doc["mode"]]
        command = [doc["mode"].lower(), flag]
        full = _run(command + [_write(tmp_path, "full.json", doc)], capsys)
        keyed = _run(command + [_write(tmp_path, "keyed.json", doc["payload"])], capsys)
        bare = command + [_write(tmp_path, "bare.json", doc["payload"][field])]
        if doc["payload"].get("tags"):
            bare += ["--tags", _write(tmp_path, "tags.json", doc["payload"]["tags"])]
        assert full == keyed == _run(bare, capsys), case["case_id"]
        assert full[1], case["case_id"]


@pytest.mark.parametrize("complementizer", ["", "  ", 5])
@pytest.mark.parametrize("mode", ["GENERATE", "ANALYZE"])
def test_blank_complementizer_is_an_input_error(tmp_path, capsys, mode, complementizer):
    clause = json.loads(json.dumps(GENERATE_5A["payload"]["clause"]))
    clause.update(clause_type="VF", complementizer=complementizer)
    flag, _ = INPUTS[mode]
    assert main([mode.lower(), flag, _write(tmp_path, "clause.json", clause)]) == 1
    assert capsys.readouterr() == ("", "input error: invalid clause spec: blank or non-string complementizer\n")


def test_disambiguate_reports_the_defects_of_the_first_invalid_candidate(tmp_path, capsys):
    # Each candidate's clause is checked as it is analysed, so the first
    # invalid one is refused with all of its own defects, lexicon defects
    # among them, as any other invalid clause is.
    unresolved = {"id": "bald", "category": "M", "surface": ["bald"], "hoberg_index": 25, "lexicon_key": "bald#25"}
    mismatched = {"id": "eher", "category": "M", "surface": ["eher"], "hoberg_index": 5, "lexicon_key": "eher#26"}
    candidates = [{"label": "valid", "observed": OBSERVED_2C}]
    for label, extra in (("a", [unresolved, mismatched]), ("b", [unresolved])):
        observed = json.loads(json.dumps(OBSERVED_2C))
        observed["constituents"] += extra
        candidates.append({"label": label, "observed": observed})
    assert main(["disambiguate", "--candidates", _write(tmp_path, "cands.json", candidates)]) == 1
    assert capsys.readouterr() == ("", (
        "input error: invalid clause spec: bald: lexicon has no reading 'bald#25' (lemma 'bald'); "
        "eher: hoberg_index 5 contradicts eher#26 (class 26)\n"
    ))


#: V2 ``er dennoch morgen``: per case, the middle modifier and the defect the
#: engine reports for it (None: the clause is valid).
_DENNOCH_CASES = {
    "valid": ({"hoberg_index": 20, "lexicon_key": "dennoch#20"}, None),
    "unresolved": ({"hoberg_index": 20, "lexicon_key": "dennoch#25"},
                   "dennoch: lexicon has no reading 'dennoch#25' (lemma 'dennoch')"),
    "contradiction": ({"hoberg_index": 44, "lexicon_key": "dennoch#20"},
                      "dennoch: hoberg_index 44 contradicts dennoch#20 (class 20)"),
}


def _dennoch_clause(fields):
    return {
        "clause_type": "V2",
        "verb": {"finite": ["kommt"]},
        "constituents": [
            {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
            {"id": "dennoch", "category": "M", "surface": ["dennoch"], **fields},
            {"id": "morgen", "category": "M", "surface": ["morgen"], "hoberg_index": 26, "lexicon_key": "morgen#26"},
        ],
    }


@pytest.mark.parametrize("command", ["generate", "all-variants", "analyze", "disambiguate"])
@pytest.mark.parametrize("case", list(_DENNOCH_CASES))
def test_every_command_refuses_a_lexicon_defect_through_the_engine(tmp_path, capsys, command, case):
    fields, defect = _DENNOCH_CASES[case]
    clause = _dennoch_clause(fields)
    doc = _write(tmp_path, "doc.json", [{"label": "a", "observed": clause}] if command == "disambiguate" else clause)
    argv = {
        "generate": ["generate", "--clause", doc],
        "all-variants": ["generate", "--clause", doc, "--all-variants"],
        "analyze": ["analyze", "--observed", doc],
        "disambiguate": ["disambiguate", "--candidates", doc],
    }[command]
    code = main(argv)
    out, err = capsys.readouterr()
    if defect is None:
        assert (code, err) == (0, "")
        assert out
    else:
        assert (code, out, err) == (1, "", f"input error: invalid clause spec: {defect}\n")


@pytest.mark.parametrize("command", ["generate", "analyze", "disambiguate"])
def test_a_cooccurrence_violation_outranks_a_lexicon_defect(tmp_path, capsys, command):
    # The engine reports a cooccurrence violation before any other clause
    # defect, so the clause is a generation error (exit 2), as it is beside
    # every other spec defect.
    clause = _dennoch_clause(_DENNOCH_CASES["contradiction"][0])
    clause["constituents"].append({"id": "sie", "category": "N", "surface": ["sie"], "features": {"pronominal": True}})
    doc = _write(tmp_path, "doc.json", [{"label": "a", "observed": clause}] if command == "disambiguate" else clause)
    flag = {"generate": "--clause", "analyze": "--observed", "disambiguate": "--candidates"}[command]
    assert main([command, flag, doc]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": {
        "type": "CooccurrenceViolation", "message": "nominative alternatives cannot cooccur: er, sie",
    }}
    assert err == ""


@pytest.mark.parametrize("command", ["generate", "analyze", "disambiguate"])
def test_a_cooccurrence_violation_outranks_a_blank_token(tmp_path, capsys, command):
    # Documents leave token checks to the compiled clause, which reports a
    # cooccurrence violation before them: exit 2, not an input error.
    clause = _two_subjects(OBSERVED_2C)
    clause["constituents"][0]["surface"] = ["er", " "]
    doc = _write(tmp_path, "doc.json", [{"label": "a", "observed": clause}] if command == "disambiguate" else clause)
    flag = {"generate": "--clause", "analyze": "--observed", "disambiguate": "--candidates"}[command]
    assert main([command, flag, doc]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": {
        "type": "CooccurrenceViolation", "message": "nominative alternatives cannot cooccur: er, sie",
    }}
    assert err == ""


#: A V2 clause with a situative complement marked as an SVC part: the SVC slot
#: holds only N, A, D, G and PO parts, so the table gives it no untagged slot.
SVC_SITUATIVE = {
    "clause_type": "V2",
    "verb": {"finite": ["sieht"]},
    "constituents": [
        {"id": "er", "category": "N", "surface": ["er"], "features": {"pronominal": True}},
        {"id": "hier", "category": "SIT", "surface": ["hier"], "features": {"svc": True}},
    ],
}


@pytest.mark.parametrize("table", [[], ["--slot-table", str(resources.files("wortfolge.data").joinpath("slot_table.tsv"))]],
                         ids=["shipped", "slot-table-file"])
@pytest.mark.parametrize(
    "case", ["generate", "generate-theme", "all-variants", "analyze", "analyze-reversed", "disambiguate"]
)
def test_constituent_without_an_untagged_slot_is_an_input_error(tmp_path, capsys, table, case):
    # Every command refuses the clause alike, whatever the tags or the order.
    clause = json.loads(json.dumps(SVC_SITUATIVE))
    if case == "analyze-reversed":
        clause["constituents"].reverse()
    doc = _write(tmp_path, "doc.json", [{"label": "svc", "observed": clause}] if case == "disambiguate" else clause)
    argv = {
        "generate": ["generate", "--clause", doc],
        "generate-theme": ["generate", "--clause", doc, "--tags", _write(tmp_path, "tags.json", {"hier": "THEME"})],
        "all-variants": ["generate", "--clause", doc, "--all-variants"],
        "analyze": ["analyze", "--observed", doc],
        "analyze-reversed": ["analyze", "--observed", doc],
        "disambiguate": ["disambiguate", "--candidates", doc],
    }[case]
    assert main(table + argv) == 1
    assert capsys.readouterr() == ("", "input error: invalid clause spec: hier: no untagged slot\n")
