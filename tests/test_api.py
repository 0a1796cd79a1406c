"""The public API, and what the test oracle may take from the engine.

``wortfolge.__all__`` is pinned to the names the command line runs on, and
the compile-then-call wrappers it dropped stay gone.  ``tests/oracle.py``
keys constituents with its own slot-table reader, so it must not import the
engine's matcher or any other engine function: only value types, exception
types, the search cap and the data loaders.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from enum import Enum
from pathlib import Path

import wortfolge
from wortfolge.clause import _Value

TESTS = Path(__file__).resolve().parent

PUBLIC = [
    "AnalysisResult", "CandidateReading", "Category", "ClauseSpec", "ClauseType", "Constituent",
    "CooccurrenceViolation", "FeatureBundle", "InexpressibleTags", "LexEntry", "Lexicon", "LexiconError",
    "LinearizeError", "NEGATED", "NO_NEGATION", "NoVorfeld", "OrderVariant", "RankedReading", "SlotTable",
    "StressWarning", "SurfaceOrder", "Tag", "TagAssignment", "VerbComplex", "Verdict",
    "analyze", "build_slot_table", "enumerate_orders", "linearize", "load_default_lexicon",
    "load_lexicon", "load_slot_table", "rank_readings",
]

#: Wrappers, helpers and types the engine no longer has.
REMOVED = (
    "sort_key", "all_sort_keys", "_slot_keys", "_no_slot", "NoSlotError", "explain_order",
    "detect_focus_constructions", "validate_clause", "observe", "spec_of", "parse_observed", "_observed_from_order",
    "dump_lexicon", "_check_search_size", "load_default_corpus", "SortKey",
    "VERBAL_CATEGORIES", "_vorfeld_starts",
)

#: The engine functions the oracle may call: the table and lexicon loaders.
LOADERS = {"build_slot_table", "load_slot_table", "load_default_lexicon", "load_lexicon"}

#: Test modules another test module may import.
SHARED = {"conftest", "strategies", "oracle"}


def test_public_api_is_pinned():
    assert sorted(wortfolge.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(wortfolge, name) is not None, name


def _modules():
    modules = [wortfolge] + [
        importlib.import_module(f"wortfolge.{info.name}") for info in pkgutil.iter_modules(wortfolge.__path__)
    ]
    assert len(modules) > 10
    return modules


def test_removed_names_are_defined_nowhere():
    for module in _modules():
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)


def test_test_only_members_stay_deleted():
    # Only tests called these; an order variant keeps no copy of its surface's
    # order, and a surface keeps its Mittelfeld ids only in its keys.
    assert not hasattr(wortfolge.Lexicon, "lookup")
    assert not hasattr(wortfolge.Lexicon, "__len__")
    assert wortfolge.OrderVariant._fields == ("surface", "assignments")
    assert wortfolge.SurfaceOrder._fields == ("vorfeld", "rendered", "keys")


def test_observed_clause_is_only_an_alias_in_analyze():
    # One clause type; the benchmark harness still builds clauses under the old name.
    assert [module.__name__ for module in _modules() if hasattr(module, "ObservedClause")] == ["wortfolge.analyze"]
    assert importlib.import_module("wortfolge.analyze").ObservedClause is wortfolge.ClauseSpec


def _allowed_from_engine(name, obj):
    if name in LOADERS or name == "MAX_SEARCH_CONSTITUENTS":
        return True
    if not isinstance(obj, type):
        return False
    return issubclass(obj, (_Value, Enum, BaseException))


def test_oracle_takes_no_matcher_from_the_engine():
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("wortfolge") for alias in node.names), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"the oracle imports the test module {node.module}"
            if node.module.split(".")[0] == "wortfolge":
                module = importlib.import_module(node.module)
                imported += [(alias.name, getattr(module, alias.name)) for alias in node.names]
    assert imported
    for name, obj in imported:
        assert not name.startswith("_"), name
        assert _allowed_from_engine(name, obj), name
    # Nothing reaches the engine's matcher through an attribute either.
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attributes & {"matches", "_index", "_signature", "_scan", "keys"}


def test_test_modules_share_only_the_oracle_and_the_helpers():
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                target = (node.module or "").split(".")[0]
                names = [alias.name for alias in node.names]
                assert (target or names[0]) in SHARED, (path.name, target, names)


#: The per-call engine functions that read enum members only through the
#: bindings beside each enum (``_V2``, ``_THEME``, ...) or ``CompiledClause.v2``:
#: a read through the class calls ``EnumType.__getattr__``, about ten times a
#: global read (the ``wortfolge.clause`` module docstring).
PER_CALL = {
    "clause": ["_violations"],
    "slots": ["_lexical_veto"],
    "linearize": [
        "_frame", "_fields", "_surface", "_carriers", "_tag_pairs", "linearize", "CompiledClause.__init__",
        "CompiledClause.admits_theme", "CompiledClause._vorfelds", "CompiledClause.realize", "_live_carriers",
    ],
    "analyze": ["_stress_focus", "_explanations", "_carrier_order", "_detections", "_analyze"],
    "disambiguate": ["rank_readings"],
}
ENUMS = {"Category", "ClauseType", "Tag", "Verdict"}


def _enum_reads(node) -> list[str]:
    """Every ``<enum>.<member>`` read under ``node``, except in f-strings (refusal messages)."""
    if isinstance(node, ast.JoinedStr):
        return []
    reads = []
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ENUMS:
        reads.append(f"{node.value.id}.{node.attr}")
    for child in ast.iter_child_nodes(node):
        reads += _enum_reads(child)
    return reads


def test_per_call_paths_read_no_enum_member_through_its_class():
    for module, functions in PER_CALL.items():
        tree = ast.parse((Path(wortfolge.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
        for dotted in functions:
            node = tree
            for name in dotted.split("."):
                node = next(n for n in node.body if getattr(n, "name", None) == name)
            assert isinstance(node, ast.FunctionDef), (module, dotted)
            assert not _enum_reads(node), (module, dotted, _enum_reads(node))


def test_the_theme_and_vorfeld_rules_are_stated_only_in_the_compiled_clause():
    # CompiledClause.admits_theme states the theme rule, and vorfeld_pick and
    # _vorfelds the Vorfeld rule; everything else asks them.  So the facts the
    # rules are stated in, Vorfeld capability and the subject, are read nowhere
    # outside the class.
    outside = []
    for path in sorted(Path(wortfolge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        compiled = next((n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CompiledClause"), None)
        inside = set() if compiled is None else {id(n) for n in ast.walk(compiled)}
        outside += [
            (path.name, node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("vorfeld_capable", "subject") and id(node) not in inside
        ]
    assert not outside
