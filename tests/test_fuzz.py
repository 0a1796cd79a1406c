"""Seeded fuzz test: mutated corpus documents end in a documented exit code.

Every shipped corpus document, and the corpus file around them, is mutated a
few times (type swaps, deleted or renamed fields, duplicated constituents,
clauses past the search cap) and run through ``cli.main`` in-process.  No
exception may escape, and the exit code must be a documented one: 0 to 3 for
``generate``, ``analyze`` and ``disambiguate``, and 0, 1 or 4 for ``corpus
run``.
"""

from __future__ import annotations

import copy
import json
import random
from importlib import resources

from wortfolge.cli import main

CORPUS = json.loads(resources.files("wortfolge.data").joinpath("corpus.json").read_text("utf-8"))
CASES = {case["case_id"]: case for case in CORPUS["cases"]}
#: Mutated variants run per shipped document, and of the corpus file.
DOCUMENT_MUTATIONS = 4
CORPUS_MUTATIONS = 12
#: Stand-ins of every JSON type for a type swap.
VALUES = (None, True, 0, 50, -1.5, "", "x", [], [1], ["x"], {}, {"x": 1})
COMMANDS = {
    "GENERATE": (["generate", "--clause"], ["generate", "--all-variants", "--pretty", "--clause"]),
    "ANALYZE": (["analyze", "--observed"], ["analyze", "--pretty", "--observed"]),
    "DISAMBIGUATE": (["disambiguate", "--candidates"], ["disambiguate", "--pretty", "--candidates"]),
}


def _slots(value, skip=None):
    """Every (container, key) pair of a JSON value, depth first, not below a ``skip`` key."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in list(items):
        yield value, key
        if key != skip:
            yield from _slots(child, skip)


def _constituent_lists(value):
    return [container[key] for container, key in _slots(value) if key == "constituents" and container[key]]


def _mutate(rng: random.Random, value, skip=None):
    """Apply one random mutation in place; type swaps, deletions and renames
    stay above the ``skip`` key."""
    kind = rng.choice(("swap", "swap", "delete", "rename", "duplicate", "oversize"))
    lists = [c for c in _constituent_lists(value) if isinstance(c, list)]
    if kind in ("duplicate", "oversize") and lists:
        constituents = rng.choice(lists)
        if kind == "duplicate":
            constituents.append(copy.deepcopy(rng.choice(constituents)))
        else:
            for k in range(11):
                extra = copy.deepcopy(constituents[k % len(constituents)])
                if isinstance(extra, dict):
                    extra["id"] = f"{extra.get('id')}-{k}"
                constituents.append(extra)
        return
    container, key = rng.choice(list(_slots(value, skip)))
    if kind == "delete":
        del container[key]
    elif kind == "rename" and isinstance(container, dict):
        container[f"{key}_"] = container.pop(key)
    else:
        container[key] = copy.deepcopy(rng.choice([v for v in VALUES if v != container[key]]))


def _run(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    return code


def test_mutated_documents_exit_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(0)
    path = tmp_path / "doc.json"
    for case_id, case in sorted(CASES.items()):
        for _ in range(DOCUMENT_MUTATIONS):
            mutated = copy.deepcopy(case["doc"])
            for _ in range(rng.randint(1, 2)):
                _mutate(rng, mutated)
            path.write_text(json.dumps(mutated), encoding="utf-8")
            argv = rng.choice(COMMANDS[case["doc"]["mode"]]) + [str(path)]
            assert _run(argv, capsys) in (0, 1, 2, 3), (case_id, argv, mutated)


def test_mutated_corpus_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(0)
    for i in range(CORPUS_MUTATIONS):
        mutated = copy.deepcopy(CORPUS)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, mutated, skip="doc")
        path = tmp_path / f"corpus{i}.json"
        path.write_text(json.dumps(mutated), encoding="utf-8")
        assert _run(["corpus", "run", str(path)], capsys) in (0, 1, 4), mutated
