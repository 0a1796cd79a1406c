"""Differential test on random slot tables: the engine on any table, not only the shipped one.

Each table is the shipped ``slot_table.tsv`` after one to four seeded edits:
two slots trade places, a pattern moves to another slot, sub-rank or row,
a pattern is dropped, or a copy of one is inserted under another tag, some
of them in a FOCUS slot, where they give a focus a second key.  On every
table, ``linearize``, ``realizations``, ``enumerate_orders`` and
``analyze`` must agree with the references in ``tests/oracle.py``, which
read the table with their own matcher.

One difference is documented.  The engine refuses a clause in which a
constituent has no untagged slot (``invalid clause spec: ...: no untagged
slot``), whatever the assignment; the references predate that refusal and
raise it only where they key such a constituent outside the Vorfeld.
"""

from __future__ import annotations

import random
from importlib import resources

from wortfolge import analyze, enumerate_orders, linearize, load_slot_table
from wortfolge.linearize import CompiledClause, realizations
from wortfolge.slots import SlotTableError

from .oracle import (
    agree,
    outcome,
    reference_analyze,
    reference_enumerate_orders,
    reference_linearize,
    reference_realizations,
    unusable_stress,
)
from .strategies import _LEX, clause_and_tags, observation

SHIPPED = resources.files("wortfolge.data").joinpath("slot_table.tsv").read_text("utf-8")
#: Tables, clauses and observations per table, and the most constituents
#: the enumeration is given (the reference's cost grows with n**3).
TABLES, CLAUSES, ENUMERATED = 20, 6, 5


def _edit(rng: random.Random, rows: list[list[str]]) -> None:
    """One random edit of the pattern rows (the TSV fields), in place."""
    slots = sorted({int(r[1]) for r in rows})
    row = rng.choice(rows)
    kind = rng.choice(("swap-slots", "move", "sub-rank", "row", "drop", "copy", "focus-copy"))
    if kind == "swap-slots":
        a, b = (str(s) for s in rng.sample(slots, 2))
        for r in rows:
            r[1] = {a: b, b: a}.get(r[1], r[1])
    elif kind == "move":
        row[1] = str(rng.choice(slots))
    elif kind == "sub-rank":
        row[2] = rng.choice(("1", "2"))
    elif kind == "row":
        row[0] = str(rng.randint(1, 7))
    elif kind == "drop":
        rows.remove(row)
    else:
        copy = list(row)
        if kind == "copy":
            copy[1], copy[5] = str(rng.choice(slots)), rng.choice(("-", "THEME", "RHEME"))
        else:
            copy[1], copy[5] = rng.choice([r[1] for r in rows if r[5] == "FOCUS"]), "FOCUS"
        rows.insert(rng.randrange(len(rows) + 1), copy)


def perturbed_table(seed: int):
    """The shipped table after one to four seeded edits, drawn again until the loader takes them."""
    rng = random.Random(seed)
    lines = [line for line in SHIPPED.splitlines() if line and not line.startswith("#")]
    while True:
        rows = [line.split("\t") for line in lines]
        for _ in range(rng.randint(1, 4)):
            _edit(rng, rows)
        try:
            return load_slot_table("\n".join("\t".join(r) for r in rows) + "\n")
        except SlotTableError:
            continue


def test_engine_matches_references_on_perturbed_tables():
    shipped = load_slot_table(SHIPPED)
    reach = {"answers": 0, "unplaced": 0, "two focus keys": 0, "moved": 0}
    for table_seed in range(TABLES):
        table = perturbed_table(table_seed)
        assert table.patterns != shipped.patterns
        for seed in range(table_seed * CLAUSES, (table_seed + 1) * CLAUSES):
            spec, tags = clause_and_tags(seed)
            for engine, reference in ((linearize, reference_linearize), (realizations, reference_realizations)):
                got = outcome(engine, spec, tags, _LEX, table)
                reach["unplaced"] += not agree(got, outcome(reference, spec, tags, _LEX, table), spec, table)
            spec = spec._replace(constituents=spec.constituents[:ENUMERATED])
            orders = outcome(enumerate_orders, spec, _LEX, table)
            if agree(orders, outcome(reference_enumerate_orders, spec, _LEX, table), spec, table):
                if orders[0] == "returned":
                    reach["answers"] += 1
                    keys = CompiledClause(spec, {}, _LEX, table).keys
                    reach["two focus keys"] += any(len(row[3] or ()) == 2 for row in keys)
                    reach["moved"] += orders != outcome(enumerate_orders, spec, _LEX, shipped)
            obs = observation(seed)
            got = outcome(analyze, obs, _LEX, table)
            if not (unusable_stress(obs) and got[0] == "raised"):  # as in test_analyze_differential
                agree(got, outcome(reference_analyze, obs, _LEX, table), obs, table)
    # The pool reaches every path: enumerations, the documented refusal,
    # focuses with two keys, and orders the shipped table does not give.
    assert all(reach.values()), reach
