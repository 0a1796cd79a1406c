"""The value types' contract, and the import path they keep free of dataclasses.

Every value type is a plain immutable class: fields in positional order,
field-wise equality, hash and repr, and a ``_replace`` that rebuilds through
the constructor.  The corpus results are the two mutable exceptions, and
the types that hold dicts (documents and corpus cases) refuse to hash.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wortfolge import (
    AnalysisResult,
    CandidateReading,
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    LexEntry,
    OrderVariant,
    RankedReading,
    StressWarning,
    SurfaceOrder,
    Tag,
    VerbComplex,
    Verdict,
)
from wortfolge.analyze import ObservedClause
from wortfolge.corpus import CaseResult, CorpusCase, CorpusSummary
from wortfolge.documents import ClauseDocument, Mode
from wortfolge.slots import SlotPattern

SRC = Path(__file__).resolve().parents[1] / "src"

_ICH = Constituent("ich", Category.N, ("ich",), FeatureBundle(pronominal=True))
_VERB = VerbComplex(("habe",), ("gesehen",))
_OBSERVED = ClauseSpec(ClauseType.V2, _VERB, (_ICH,), None, frozenset({"ich"}))
_CLAUSE_FIELDS = ("clause_type", "verb", "constituents", "complementizer", "stress")
_RESULT = AnalysisResult(Verdict.GRAMMATICAL_UNMARKED, "ich", None, None, (), ((("ich", Tag.THEME),),), 0)
_SURFACE = SurfaceOrder("ich", ("Ich", "habe", "gesehen"), ())
_READING = CandidateReading("eher#26", _OBSERVED, frozenset({"NEGATED"}))

#: (type, positional values, expected field names in order, one field change)
VALUES = [
    (FeatureBundle, ("+", "-", False, False), ("definite", "animate", "pronominal", "svc"), {"definite": "-"}),
    (
        Constituent,
        ("ich", Category.N, ("ich",), FeatureBundle(pronominal=True), None, None),
        ("id", "category", "surface", "features", "hoberg_index", "lexicon_key"),
        {"id": "du"},
    ),
    (VerbComplex, (("habe",), ("gesehen",)), ("finite", "nonfinite"), {"nonfinite": ()}),
    (ClauseSpec, (ClauseType.V2, _VERB, (_ICH,), None, frozenset()), _CLAUSE_FIELDS, {"clause_type": ClauseType.VF}),
    (
        SlotPattern,
        (1, 1, 0, Category.N, None, None, True, False, None, None, None, ""),
        ("row", "slot", "sub_rank", "category", "definite", "animate", "pron", "svc", "required_tag",
         "hoberg_lo", "hoberg_hi", "annotation"),
        {"slot": 2},
    ),
    (StressWarning, ("habe", "ich"), ("verb_candidate", "vorfeld_candidate"), {"vorfeld_candidate": "du"}),
    (
        AnalysisResult,
        (Verdict.GRAMMATICAL_UNMARKED, "ich", None, None, (), ((("ich", Tag.THEME),),), 0, None, ()),
        ("verdict", "theme", "rheme", "focus", "focus_options", "explanations", "markedness_cost",
         "warning", "detected_focus"),
        {"markedness_cost": 1},
    ),
    (
        SurfaceOrder,
        ("ich", ("Ich", "habe", "gestern", "gesehen"), (("gestern", (11, 1, 26, 1)),)),
        ("vorfeld", "rendered", "keys"),
        {"vorfeld": None},
    ),
    (
        OrderVariant,
        (_SURFACE, ((),)),
        ("surface", "assignments"),
        {"assignments": ()},
    ),
    (
        CandidateReading,
        ("eher#26", _OBSERVED, frozenset({"NEGATED"})),
        ("label", "clause", "constraint_context"),
        {"label": "eher#5"},
    ),
    (RankedReading, (_READING, True, _RESULT, 1), ("reading", "constraint_ok", "result", "rank"), {"rank": 2}),
    (
        LexEntry,
        ("eher", "26", 26, True, True, True, frozenset(), False, "earlier"),
        ("lemma", "reading_id", "hoberg_index", "rhematic", "focusable", "vorfeld_capable", "constraints",
         "inferred", "gloss"),
        {"gloss": ""},
    ),
    (
        ClauseDocument,
        (Mode.ANALYZE, _OBSERVED, None, (), ()),
        ("mode", "clause", "tags", "candidates", "excluded"),
        {"mode": Mode.GENERATE},
    ),
]


#: ``perfbench/inputs.py`` builds clauses under the alias, positionally with five arguments.
ALIAS = (
    ObservedClause, (ClauseType.V2, _VERB, (_ICH,), None, frozenset({"ich"})), _CLAUSE_FIELDS, {"stress": frozenset()}
)


@pytest.fixture(params=VALUES + [ALIAS], ids=[case[0].__name__ for case in VALUES] + ["ObservedClause"])
def value(request):
    return request.param


def test_fields_keep_their_names_and_positional_order(value):
    cls, args, fields, _ = value
    instance = cls(*args)
    assert cls._fields == fields
    assert tuple(getattr(instance, name) for name in fields) == args
    assert cls(**dict(zip(fields, args))) == instance


def test_fields_cannot_be_assigned_or_deleted(value):
    cls, args, fields, _ = value
    instance = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
        with pytest.raises(AttributeError):
            delattr(instance, name)
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert tuple(getattr(instance, name) for name in fields) == args


def test_equality_and_hash_follow_type_and_fields(value):
    cls, args, _, change = value
    instance, twin = cls(*args), cls(*args)
    assert instance == twin and not instance != twin
    if cls.__hash__ is None:  # a value type holding dicts
        with pytest.raises(TypeError, match=f"^unhashable type: '{cls.__name__}'$"):
            hash(instance)
    else:
        assert hash(instance) == hash(twin)
    assert instance != instance._replace(**change)
    assert instance != object()
    assert type("Lookalike", (cls,), {"__slots__": ()})(*args) != instance


def test_repr_names_every_field(value):
    cls, args, fields, _ = value
    shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(fields, args))
    assert repr(cls(*args)) == f"{cls.__name__}({shown})"


def test_replace_changes_only_the_named_fields(value):
    cls, args, fields, change = value
    instance = cls(*args)
    changed = instance._replace(**change)
    assert type(changed) is cls
    for name, arg in zip(fields, args):
        assert getattr(changed, name) == change.get(name, arg)
    assert changed._replace(**{name: getattr(instance, name) for name in change}) == instance
    with pytest.raises(TypeError):
        instance._replace(no_such_field=1)


def test_copies_and_pickles_are_equal(value):
    cls, args, _, _ = value
    instance = cls(*args)
    for duplicate in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        assert type(duplicate) is cls and duplicate == instance


def test_replace_reruns_coercion_and_validation():
    with pytest.raises(ValueError, match="definite must be one of"):
        FeatureBundle()._replace(definite="x")
    with pytest.raises(ValueError, match="animate must be one of"):
        FeatureBundle()._replace(animate="yes")
    assert _ICH._replace(surface=["Ich", "selbst"]).surface == ("Ich", "selbst")
    assert _VERB._replace(finite=["hat"]).finite == ("hat",)
    assert _OBSERVED._replace(stress={"ich"}).stress == frozenset({"ich"})
    assert ClauseSpec(ClauseType.V2, _VERB, [_ICH])._replace(constituents=[_ICH]).constituents == (_ICH,)
    assert _READING._replace(constraint_context=["NEGATED"]).constraint_context == frozenset({"NEGATED"})


@pytest.mark.parametrize("value", ["no", 1, None])
@pytest.mark.parametrize("flag", ["pronominal", "svc"])
def test_feature_bundle_refuses_a_non_boolean_flag(flag, value):
    # 1 == True, so a flag must be the bool itself; documents give the same message.
    with pytest.raises(ValueError) as err:
        FeatureBundle(**{flag: value})
    assert str(err.value) == f"{flag} must be true or false"
    with pytest.raises(ValueError, match=f"^{flag} must be true or false$"):
        FeatureBundle()._replace(**{flag: value})


def test_corpus_results_stay_mutable_and_unhashable():
    result = CaseResult("ex-1", True, False)
    assert result.failures == [] and result.failures is not CaseResult("ex-1", True, False).failures
    result.passed = False
    result.failures.append("rendered: wrong")
    assert result == CaseResult("ex-1", False, False, ["rendered: wrong"])
    assert repr(result) == "CaseResult(case_id='ex-1', passed=False, expected_mismatch=False, failures=['rendered: wrong'])"
    summary = CorpusSummary([result])
    summary.results = []
    assert summary == CorpusSummary([]) and summary.ok
    for unhashable in (result, summary):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_values_holding_dicts_are_unhashable():
    # Hashing names the class, not the dict inside it.
    document = ClauseDocument(Mode.GENERATE, ClauseSpec(ClauseType.V2, _VERB, (_ICH,)), {})
    case = CorpusCase("ex-1", document, {"rendered": "Ich habe gesehen"})
    for unhashable in (document, case):
        assert unhashable == unhashable._replace()
        with pytest.raises(TypeError, match=f"^unhashable type: '{type(unhashable).__name__}'$"):
            hash(unhashable)


# -- import hygiene ------------------------------------------------------------

def _modules_after(statement: str) -> set[str]:
    """The modules loaded by ``statement`` in a fresh interpreter without site packages."""
    code = f"import sys; {statement}; print(*sys.modules, sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_dataclasses():
    loaded = _modules_after("import wortfolge")
    assert "wortfolge.linearize" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_importing_the_cli_loads_neither_dataclasses_nor_the_corpus():
    loaded = _modules_after("import wortfolge.cli")
    assert "wortfolge.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "wortfolge.corpus"}
