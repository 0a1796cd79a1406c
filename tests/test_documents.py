import json
import re

import pytest

from wortfolge import Tag
from wortfolge.cli import EXIT_INPUT, main
from wortfolge.documents import (
    DocumentError,
    Mode,
    parse_candidates,
    parse_clause,
    parse_document,
    parse_tags,
)

from .conftest import c

CLAUSE_JSON = {
    "clause_type": "V2",
    "verb": {"finite": ["habe"], "nonfinite": ["gesehen"]},
    "constituents": [
        {"id": "ich", "category": "N", "surface": ["ich"], "features": {"pronominal": True}},
        {
            "id": "den-mann",
            "category": "A",
            "surface": ["den", "Mann"],
            "features": {"definite": "+", "animate": "+"},
        },
        {
            "id": "gestern",
            "category": "M",
            "surface": ["gestern"],
            "hoberg_index": 26,
            "lexicon_key": "gestern#26",
        },
    ],
}


def test_parse_clause_round_trip():
    spec = parse_clause(CLAUSE_JSON)
    assert [con.id for con in spec.constituents] == ["ich", "den-mann", "gestern"]
    assert spec.by_id("den-mann").features.definite == "+"
    assert spec.by_id("gestern").hoberg_index == 26


def test_parse_tags():
    assert parse_tags({"gestern": "THEME"}) == {"gestern": Tag.THEME}
    with pytest.raises(DocumentError, match="unknown tag"):
        parse_tags({"gestern": "TOPIC"})


def test_parse_observed_with_stress():
    raw = dict(CLAUSE_JSON)
    raw["stress"] = ["ich"]
    obs = parse_clause(raw)
    assert obs.stress == {"ich"}
    assert obs.order == ("ich", "den-mann", "gestern")


def test_stress_on_unknown_id_rejected():
    raw = dict(CLAUSE_JSON)
    raw["stress"] = ["wer"]
    with pytest.raises(DocumentError, match=r"^clause\.stress: unknown constituent id 'wer'$"):
        parse_clause(raw)


def test_errors_name_their_location():
    broken = {
        "clause_type": "V2",
        "verb": {"finite": ["hat"]},
        "constituents": [{"id": "x", "category": "Q", "surface": ["x"]}],
    }
    with pytest.raises(DocumentError, match=r"constituents\[0\]\(x\)"):
        parse_clause(broken)


def test_full_document_parsing():
    doc = parse_document(
        {
            "schema_version": "1",
            "mode": "GENERATE",
            "payload": {"clause": CLAUSE_JSON, "tags": {"gestern": "THEME"}},
        }
    )
    assert doc.mode is Mode.GENERATE
    assert doc.tags == {"gestern": Tag.THEME}


def test_unknown_mode_rejected():
    with pytest.raises(DocumentError, match="mode"):
        parse_document({"schema_version": "1", "mode": "PARSE", "payload": {}})


def test_unsupported_schema_version_rejected():
    with pytest.raises(DocumentError, match="schema_version"):
        parse_document({"schema_version": "2", "mode": "GENERATE", "payload": {}})


def test_candidate_exclusion_at_construction():
    candidates, excluded = parse_candidates(
        [
            {"label": "adjunct", "np_attachment": {"head_is_pronoun": True}},
            {"label": "modifier", "observed": CLAUSE_JSON},
        ]
    )
    assert [cand.label for cand in candidates] == ["modifier"]
    assert excluded == (("adjunct", "pronominal heads take no NP adjunct"),)


def test_non_string_constraint_context_rejected():
    candidates = [{"label": "a", "observed": CLAUSE_JSON, "constraint_context": [{"x": 1}]}]
    with pytest.raises(DocumentError, match=r"candidates\[0\].constraint_context: must be a list of strings"):
        parse_candidates(candidates)


@pytest.mark.parametrize("atom", ["negated", "NEGATION", ""])
def test_unknown_constraint_atom_is_an_input_error(tmp_path, capsys, atom):
    # A misspelt atom used to be ignored, so the reading escaped its constraint.
    candidates = [
        {"label": "a", "observed": CLAUSE_JSON, "constraint_context": ["NEGATED"]},
        {"label": "b", "observed": CLAUSE_JSON, "constraint_context": ["NEGATED", atom]},
    ]
    message = f"candidates[1].constraint_context: unknown atom {atom!r}"
    with pytest.raises(DocumentError, match=rf"^{re.escape(message)}$"):
        parse_candidates(candidates)
    path = tmp_path / "cands.json"
    path.write_text(json.dumps(candidates), encoding="utf-8")
    assert main(["disambiguate", "--candidates", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def _analyze_doc(**edits):
    observed = json.loads(json.dumps(CLAUSE_JSON))
    for path, value in edits.items():
        target = observed
        *parents, leaf = path.split(".")
        for step in parents:
            target = target[int(step)] if isinstance(target, list) else target[step]
        target[leaf] = value
    return {"schema_version": "1", "mode": "ANALYZE", "payload": {"observed": observed}}


def _generate_doc(**edits):
    clause = _analyze_doc(**edits)["payload"]["observed"]
    return {"schema_version": "1", "mode": "GENERATE", "payload": {"clause": clause, "tags": {}}}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("analyze", _analyze_doc(stress=[["ich"]]), "stress: entries must be constituent ids"),
        ("generate", _generate_doc(stress=[["ich"]]), "clause.stress: entries must be constituent ids"),
        ("generate", _generate_doc(stress=["wer"]), "clause.stress: unknown constituent id 'wer'"),
        ("analyze", _analyze_doc(**{"verb.finite": [1]}), "verb.finite: must be a list of strings"),
        ("generate", _generate_doc(**{"verb.finite": [1]}), "verb.finite: must be a list of strings"),
        ("generate", _generate_doc(**{"verb.nonfinite": [None]}), "verb.nonfinite: must be a list of strings"),
        ("analyze", _analyze_doc(**{"constituents.0.features": {"pronominal": "no"}}), "pronominal must be true or false"),
        ("generate", _generate_doc(**{"constituents.0.features": {"pronominal": True, "svc": "no"}}), "svc must be true or false"),
        ("analyze", _analyze_doc(**{"constituents.2.hoberg_index": True}), "hoberg_index must be an integer"),
        ("generate", _generate_doc(**{"constituents.1.id": ""}), "id must not be empty"),
        ("generate", _generate_doc(**{"constituents.0.surface": [""]}), "surface tokens must be strings, none of them empty"),
        ("analyze", _analyze_doc(**{"constituents.1.surface": ["den", ""]}), "surface tokens must be strings, none of them empty"),
        ("generate", _generate_doc(**{"verb.finite": [""]}), "verb.finite: must be a list of strings, none of them empty"),
        ("analyze", _analyze_doc(**{"verb.nonfinite": [""]}), "verb.nonfinite: must be a list of strings, none of them empty"),
        ("generate", _generate_doc(**{"constituents.0.surface": [" "]}), "surface tokens must be strings, none of them empty or blank"),
        ("analyze", _analyze_doc(**{"constituents.1.surface": ["den", "\t"]}), "surface tokens must be strings, none of them empty or blank"),
        ("generate", _generate_doc(**{"verb.finite": ["  "]}), "verb.finite: must be a list of strings, none of them empty or blank"),
        ("analyze", _analyze_doc(**{"verb.nonfinite": [" "]}), "verb.nonfinite: must be a list of strings, none of them empty or blank"),
        ("analyze", _analyze_doc(stres=["ich"]), "input error: observed.stres: unknown field\n"),
        ("generate", _generate_doc(**{"verb.nonfinte": ["gesehen"]}), "input error: clause.verb.nonfinte: unknown field\n"),
        ("generate", _generate_doc(**{"constituents.2.lexicon_keys": "gestern#26"}),
         "input error: clause.constituents[2](gestern).lexicon_keys: unknown field\n"),
        ("analyze", _analyze_doc(**{"constituents.0.features.pronomial": True}),
         "input error: observed.constituents[0](ich).features.pronomial: unknown field\n"),
    ],
    ids=["stress-entry", "stress-entry-generate", "stress-unknown-generate", "finite-token-analyze", "finite-token-generate", "nonfinite-token",
         "pronominal-string", "svc-string", "hoberg-bool", "empty-id", "empty-surface-token-generate",
         "empty-surface-token-analyze", "empty-finite-token", "empty-nonfinite-token",
         "blank-surface-token-generate", "blank-surface-token-analyze", "blank-finite-token", "blank-nonfinite-token",
         "unknown-clause-field", "unknown-verb-field", "unknown-constituent-field", "unknown-feature-field"],
)
def test_malformed_field_is_an_input_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flag = "--observed" if command == "analyze" else "--clause"
    assert main([command, flag, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_generation_reads_no_stress(tmp_path, capsys):
    # One reader for every mode: generation checks the marks and ignores them.
    outputs = []
    for doc in (_generate_doc(), _generate_doc(stress=["ich"])):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", "--clause", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_non_boolean_head_is_pronoun_is_an_input_error(tmp_path, capsys, flag):
    # A JSON string "false" used to count as true and exclude the reading.
    candidates = [
        {"label": "adjunct", "np_attachment": {"head_is_pronoun": flag}, "observed": CLAUSE_JSON},
        {"label": "modifier", "observed": CLAUSE_JSON},
    ]
    message = f"candidates[0].np_attachment.head_is_pronoun: unexpected type {type(flag).__name__}"
    with pytest.raises(DocumentError, match=rf"^{re.escape(message)}$"):
        parse_candidates(candidates)
    path = tmp_path / "cands.json"
    path.write_text(json.dumps(candidates), encoding="utf-8")
    assert main(["disambiguate", "--candidates", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")
