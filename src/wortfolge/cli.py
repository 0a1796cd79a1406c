"""Command-line front-end: generate, analyze, disambiguate, corpus harness.

Every input file is read as a clause document of the command's mode: a full
``{"schema_version": "1", "mode": ..., "payload": ...}`` document (any input
with one of those three fields), a payload keyed by its field
(``{"clause": ...}`` with optional ``"tags"``, ``{"observed": ...}``,
``{"candidates": ...}``), or the bare value of that field.  The last two are
wrapped into a document of the mode, so all three are checked by the same
parser; a document of another mode is an input error.  ``generate --tags``
replaces the document's assignment.

Exit codes: 0 ok, 1 input error, 2 generation error, 3 ungrammatical verdict,
4 corpus failure.  A field the document parser does not read is an input
error, and so is a clause the engine refuses as invalid (``invalid clause
spec: ...``), an unresolved lexicon key or a ``hoberg_index`` that
contradicts its entry included.  A generation error (inexpressible tags, no
Vorfeld, a cooccurrence violation) prints ``{"error": {"message": ...,
"type": ...}}`` on stdout.  A cooccurrence violation (two subjects, two of
SIT/DIR/EXP) is a generation error in every command, and outranks every
other clause defect, since no tag assignment can order such a clause:
``analyze`` and ``disambiguate`` exit 2 with that object too.
Machine-readable JSON is the default output; ``--pretty`` prints a compact
human-readable account instead.  Reports are deterministic byte-for-byte for
identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analyze import Verdict, analyze
from .disambiguate import rank_readings
from .clause import Category, Tag
from .documents import (
    PAYLOAD_FIELDS,
    SCHEMA_VERSION,
    ClauseDocument,
    DocumentError,
    Mode,
    analysis_report,
    disambiguate_report,
    error_report,
    generate_report,
    parse_document,
    parse_tags,
    variants_report,
)
from .lexicon import LexiconError, load_default_lexicon, load_lexicon
from .linearize import InexpressibleTags, LinearizeError, NoVorfeld, _fields, enumerate_orders, linearize
from .slots import SlotTableError, build_slot_table, load_slot_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GENERATION = 2
EXIT_UNGRAMMATICAL = 3
EXIT_CORPUS = 4

LEXICON_ENV = "WORTFOLGE_LEXICON"


class _InputError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise _InputError(f"{path}: invalid UTF-8 ({err})") from None


def _load_json(path: str):
    try:
        return json.loads(_read_file(path))
    except (json.JSONDecodeError, RecursionError) as err:
        raise _InputError(f"{path}: invalid JSON ({err})") from None


#: An input with any of these fields is a full document, checked as it stands.
_ENVELOPE = {"schema_version", "mode", "payload"}


def _read_document(path: str, mode: Mode) -> ClauseDocument:
    """Parse a full document, a keyed payload or a bare payload as a document of ``mode``."""
    raw = _load_json(path)
    if not (isinstance(raw, dict) and _ENVELOPE & raw.keys()):
        field = PAYLOAD_FIELDS[mode]
        payload = raw if isinstance(raw, dict) and field in raw else {field: raw}
        raw = {"schema_version": SCHEMA_VERSION, "mode": mode.value, "payload": payload}
    doc = parse_document(raw)
    if doc.mode is not mode:
        raise _InputError(f"document mode {doc.mode.value}, expected {mode.value}")
    return doc


def _emit(payload, pretty_lines, pretty: bool):
    if pretty:
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2))


def _constituent_gloss(c, tag=None) -> str:
    base = c.category.value
    if c.category is Category.M and c.hoberg_index is not None:
        base = f"M{c.hoberg_index}"
    if c.features.svc:
        base += ":svc"
    elif c.features.pronominal:
        base += ":pron"
    else:
        if c.features.definite in "+-":
            base += c.features.definite + "d"
        if c.features.animate in "+-":
            base += c.features.animate + "a"
    if tag is not None:
        base += "+" + tag.value.lower()
    return base


def _interlinear(clause, ordered, tag_of, rendered=None) -> list[str]:
    """Two aligned rows over the clause's fields: surface text above,
    category/tag glosses below.

    ``ordered`` holds the constituents in surface order and ``tag_of`` maps an
    id to its tag (or None).  A field's text is its own tokens, or, given
    ``rendered``, the same number of tokens taken from there.
    """
    top, bottom = [], []
    for owner, tokens in _fields(clause, ordered):
        if rendered is not None:
            tokens, rendered = rendered[: len(tokens)], rendered[len(tokens):]
        text = " ".join(tokens)
        gloss = owner if isinstance(owner, str) else _constituent_gloss(owner, tag_of(owner.id))
        width = max(len(text), len(gloss))
        top.append(text.ljust(width))
        bottom.append(gloss.ljust(width))
    return ["  ".join(top).rstrip(), "  ".join(bottom).rstrip()]


def _cmd_generate(args, lex, table) -> int:
    doc = _read_document(args.clause, Mode.GENERATE)
    clause = doc.clause
    tags = parse_tags(_load_json(args.tags)) if args.tags else doc.tags

    if args.all_variants:
        if tags:
            # Enumeration ignores the assignment, but refuses a malformed one
            # as plain generation does; an inexpressible one is not an error.
            try:
                linearize(clause, tags, lex, table)
            except (InexpressibleTags, NoVorfeld):
                pass
        variants = enumerate_orders(clause, lex, table)
        lines = [f"{len(variants)} distinct orders:"]
        for v in variants:
            lines.append(f"  {v.surface.text}   [{len(v.assignments)} assignment(s)]")
        _emit(variants_report(variants), lines, args.pretty)
        return EXIT_OK

    surface = linearize(clause, tags, lex, table)
    lines = _interlinear(clause, [clause.by_id(cid) for cid in surface.order], tags.get, surface.rendered)
    if surface.vorfeld is not None:
        lines.append(f"vorfeld: {surface.vorfeld}")
    keys = "  ".join(f"{cid}[{slot}.{sub_rank}.{hoberg}]" for cid, (slot, sub_rank, hoberg, _) in surface.keys)
    lines.append(f"mittelfeld slots: {keys}")
    _emit(generate_report(surface), lines, args.pretty)
    return EXIT_OK


def _cmd_analyze(args, lex, table) -> int:
    doc = _read_document(args.observed, Mode.ANALYZE)
    observed = doc.clause
    result = analyze(observed, lex, table)
    # Later entries win: a constituent shows focus over theme over rheme.
    recovered = {result.rheme: Tag.RHEME, result.theme: Tag.THEME, result.focus: Tag.FOCUS}
    lines = _interlinear(observed, observed.constituents, recovered.get)
    lines += [
        f"verdict: {result.verdict.value}",
        f"theme: {result.theme or '-'}   rheme: {result.rheme or '-'}   focus: {result.focus or '-'}",
        f"explanations: {len(result.explanations)}   markedness cost: {result.markedness_cost}",
    ]
    if result.warning is not None:
        lines.append(
            "stress expected on the finite verb "
            f"({result.warning.verb_candidate!r}) or the Vorfeld element "
            f"({result.warning.vorfeld_candidate!r})"
        )
    if result.detected_focus:
        lines.append(f"focus constructions detected on: {', '.join(result.detected_focus)}")
    _emit(analysis_report(result), lines, args.pretty)
    return EXIT_UNGRAMMATICAL if result.verdict is Verdict.UNGRAMMATICAL else EXIT_OK


def _cmd_disambiguate(args, lex, table) -> int:
    doc = _read_document(args.candidates, Mode.DISAMBIGUATE)
    if not doc.candidates:
        raise _InputError("no constructible candidate readings")

    ranked = rank_readings(doc.candidates, lex, table)
    lines = []
    for r in ranked:
        flag = "" if r.constraint_ok else "  [constraint-rejected]"
        lines.append(
            f"{r.rank}. {r.reading.label}: {r.result.verdict.value}, "
            f"focus cost {r.result.markedness_cost}{flag}"
        )
    for label, reason in doc.excluded:
        lines.append(f"-- {label}: excluded ({reason})")
    _emit(disambiguate_report(ranked, doc.excluded), lines, args.pretty)
    return EXIT_OK


def _cmd_corpus(args, lex, table) -> int:
    # Imported here: no other command needs the corpus module, and each call
    # is a fresh process that would otherwise load it.
    from .corpus import load_corpus, run_corpus

    cases = load_corpus(_read_file(args.corpus_file))
    summary = run_corpus(cases, lex, table, filter_id=args.filter)
    for result in summary.results:
        status = "PASS" if result.passed else "FAIL"
        suffix = "  (expected mismatch)" if result.expected_mismatch else ""
        print(f"{result.case_id}: {status}{suffix}")
        for failure in result.failures:
            print(f"    {failure}")
    counts = summary.counts
    print(
        f"total {counts['total']}, passed {counts['passed']}, "
        f"failed {counts['failed']}, expected-mismatch {counts['expected_mismatch']}"
    )
    if args.filter is not None and counts["total"] == 0:
        print(f"no case matches {args.filter!r}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if summary.ok else EXIT_CORPUS


class _ArgumentParser(argparse.ArgumentParser):
    # Flag misuse is an input error (exit 1), not argparse's default exit 2,
    # which is reserved for generation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _output_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--pretty", action="store_true", help="human-readable output")
    group.add_argument("--json", action="store_true", help="machine-readable output (default)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wortfolge",
        description="German constituent-order engine: generation, analysis, disambiguation.",
    )
    parser.add_argument("--lexicon", help=f"lexicon TSV path (default: ${LEXICON_ENV} or shipped)")
    parser.add_argument("--slot-table", help="slot table TSV path (default: shipped transcription)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="linearize a clause spec under a tag assignment")
    p_gen.add_argument("--clause", required=True, help="clause spec JSON file")
    p_gen.add_argument("--tags", help="tag assignment JSON file (id -> THEME/RHEME/FOCUS)")
    p_gen.add_argument("--all-variants", action="store_true", help="enumerate all realizable orders")
    _output_flags(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_ana = sub.add_parser("analyze", help="recover theme/rheme/focus from an observed order")
    p_ana.add_argument("--observed", required=True, help="observed clause JSON file")
    _output_flags(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    p_dis = sub.add_parser("disambiguate", help="rank candidate readings by focus cost")
    p_dis.add_argument("--candidates", required=True, help="candidate readings JSON file")
    _output_flags(p_dis)
    p_dis.set_defaults(func=_cmd_disambiguate)

    p_corpus = sub.add_parser("corpus", help="corpus harness")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_run = corpus_sub.add_parser("run", help="run a corpus file")
    p_run.add_argument("corpus_file", help="corpus JSON file")
    p_run.add_argument("--filter", help="run only the named case id")
    p_run.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lexicon_path = args.lexicon or os.environ.get(LEXICON_ENV)
        lex = load_lexicon(_read_file(lexicon_path)) if lexicon_path else load_default_lexicon()
        table = load_slot_table(_read_file(args.slot_table)) if args.slot_table else build_slot_table()
        return args.func(args, lex, table)
    except (_InputError, DocumentError, LexiconError, SlotTableError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except LinearizeError as err:
        print(json.dumps(error_report(err), sort_keys=True, ensure_ascii=False))
        return EXIT_GENERATION


if __name__ == "__main__":
    sys.exit(main())
