"""Reading disambiguation: rank competing analyses by focus cost.

Focussing constructions are rare in written text, so among the grammatical
readings of an ambiguous sentence (homonymous adverbs, PP attachment) the one
that avoids contrastive focus is preferred.  Lexical usage constraints (e.g.
an adverb reading that must not fall under negation) reject readings outright.

Candidate generation is the caller's job; this module filters and ranks.
"""

from __future__ import annotations

from .analyze import AnalysisResult, Verdict, _analyze
from .clause import ClauseSpec, _set, _Value
from .lexicon import Lexicon, NO_NEGATION
from .slots import SlotTable, build_slot_table

#: Context atom: the ambiguous item stands in the scope of negation.
NEGATED = "NEGATED"


class CandidateReading(_Value):
    """One reading of an ambiguous sentence, as an observed clause variant (a
    :class:`ClauseSpec` in surface order)."""

    __slots__ = ("label", "clause", "constraint_context")

    def __init__(self, label: str, clause: ClauseSpec, constraint_context: frozenset[str] = frozenset()):
        _set(self, "label", label)
        _set(self, "clause", clause)
        _set(self, "constraint_context", frozenset(constraint_context))


class RankedReading(_Value):
    __slots__ = ("reading", "constraint_ok", "result", "rank")

    def __init__(self, reading: CandidateReading, constraint_ok: bool, result: AnalysisResult, rank: int):
        _set(self, "reading", reading)
        _set(self, "constraint_ok", constraint_ok)
        _set(self, "result", result)
        _set(self, "rank", rank)


def rank_readings(
    candidates,
    lex: Lexicon,
    table: SlotTable | None = None,
) -> tuple[RankedReading, ...]:
    """Analyze and order the candidates: avoid focus where possible.

    Constraint-violating candidates sort last and are flagged rejected;
    among the survivors ungrammatical readings rank below marked ones, and
    grammatical readings ascend by markedness cost.  Ties keep caller order.
    Each candidate is compiled once, and its constraints are read off the
    lexicon entries its compiled clause resolved.  The first invalid
    candidate raises its clause error, an unresolved or contradicted
    lexicon key among its ``invalid clause spec`` defects.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("rank_readings requires at least one candidate")
    table = table or build_slot_table()

    scored = []
    for index, candidate in enumerate(candidates):
        clause, result = _analyze(candidate.clause, lex, table)
        ok = NEGATED not in candidate.constraint_context or not any(
            entry is not None and NO_NEGATION in entry.constraints for entry in clause.entries
        )
        ungrammatical = result.verdict is Verdict.UNGRAMMATICAL
        sort_key = (0 if ok else 1, 1 if ungrammatical else 0, result.markedness_cost, index)
        scored.append((sort_key, candidate, ok, result))
    scored.sort(key=lambda item: item[0])
    return tuple(
        RankedReading(reading=candidate, constraint_ok=ok, result=result, rank=rank)
        for rank, (_, candidate, ok, result) in enumerate(scored, start=1)
    )
