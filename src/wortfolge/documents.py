"""JSON clause documents: the serialized form the CLI and corpus consume.

A document is ``{"schema_version": "1", "mode": ..., "payload": ...}`` where
mode is GENERATE (clause + tag assignment), ANALYZE (observed clause) or
DISAMBIGUATE (candidate readings).  Every mode reads a clause the same way,
stress marks included, into a :class:`ClauseSpec`.  Field names mirror the
domain types in snake_case; the format is deliberately diff-friendly for
corpus files.  A field the parser does not read is refused, so a misspelt
one is never silently ignored; lexicon keys are not looked up here, since
the engine checks them when it compiles the clause.  Every JSON report the
CLI prints is built here too (the ``*_report`` functions), and the corpus
compares its expectations with them.
"""

from __future__ import annotations

from enum import Enum

from .analyze import AnalysisResult
from .clause import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    NA,
    Tag,
    VerbComplex,
    _all_words,
    _set,
    _Value,
)
from .disambiguate import NEGATED, CandidateReading, RankedReading
from .linearize import OrderVariant, SurfaceOrder, TagAssignment

SCHEMA_VERSION = "1"
#: The JSON names of the fields of a slot key in ``SurfaceOrder.keys``.
KEY_FIELDS = ("slot", "sub_rank", "hoberg", "input_ordinal")


class Mode(str, Enum):
    GENERATE = "GENERATE"
    ANALYZE = "ANALYZE"
    DISAMBIGUATE = "DISAMBIGUATE"


#: The payload field that holds each mode's input.
PAYLOAD_FIELDS = {Mode.GENERATE: "clause", Mode.ANALYZE: "observed", Mode.DISAMBIGUATE: "candidates"}
#: Every field a payload of each mode may hold.
_PAYLOAD_KEYS = {Mode.GENERATE: ("clause", "tags"), Mode.ANALYZE: ("observed",), Mode.DISAMBIGUATE: ("candidates",)}


class DocumentError(Exception):
    """Malformed document; the message names the offending location."""


class ClauseDocument(_Value):
    """A parsed document: GENERATE and ANALYZE documents hold a ``clause``,
    DISAMBIGUATE documents ``candidates``; ``excluded`` holds the
    ``(label, reason)`` pairs of the candidates dropped at construction.

    ``tags`` is a dict, so a document is unhashable.
    """

    __slots__ = ("mode", "clause", "tags", "candidates", "excluded")
    __hash__ = None

    def __init__(
        self,
        mode: Mode,
        clause: ClauseSpec | None = None,
        tags: TagAssignment | None = None,
        candidates: tuple[CandidateReading, ...] = (),
        excluded: tuple[tuple[str, str], ...] = (),
    ):
        _set(self, "mode", mode)
        _set(self, "clause", clause)
        _set(self, "tags", tags)
        _set(self, "candidates", candidates)
        _set(self, "excluded", excluded)


def _require(obj, key, where, kind=None):
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object")
    if key not in obj:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise DocumentError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _refuse_unknown(raw: dict, known, where):
    """Refuse the first field of ``raw`` not in ``known``: nothing would read it."""
    for key in raw:
        if key not in known:
            raise DocumentError(f"{where}.{key}: unknown field")


def _parse_features(raw, where) -> FeatureBundle:
    if raw is None:
        return FeatureBundle()
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: features must be an object")
    _refuse_unknown(raw, ("definite", "animate", "pronominal", "svc"), f"{where}.features")
    try:
        return FeatureBundle(
            definite=raw.get("definite", NA),
            animate=raw.get("animate", NA),
            pronominal=raw.get("pronominal", False),
            svc=raw.get("svc", False),
        )
    except ValueError as err:
        raise DocumentError(f"{where}: {err}") from None


def _parse_constituent(raw, where) -> Constituent:
    cid = _require(raw, "id", where, str)
    if not cid:
        raise DocumentError(f"{where}: id must not be empty")
    where = f"{where}({cid})"
    _refuse_unknown(raw, ("id", "category", "surface", "features", "hoberg_index", "lexicon_key"), where)
    raw_category = _require(raw, "category", where, str)
    try:
        category = Category(raw_category)
    except ValueError:
        raise DocumentError(f"{where}: unknown category {raw_category!r}") from None
    surface = _require(raw, "surface", where, list)
    if not _all_words(surface):
        raise DocumentError(f"{where}: surface tokens must be strings, none of them empty or blank")
    hoberg = raw.get("hoberg_index")
    if hoberg is not None and (not isinstance(hoberg, int) or isinstance(hoberg, bool)):
        raise DocumentError(f"{where}: hoberg_index must be an integer")
    lexicon_key = raw.get("lexicon_key")
    if lexicon_key is not None and not isinstance(lexicon_key, str):
        raise DocumentError(f"{where}: lexicon_key must be a string")
    return Constituent(
        id=cid,
        category=category,
        surface=tuple(surface),
        features=_parse_features(raw.get("features"), where),
        hoberg_index=hoberg,
        lexicon_key=lexicon_key,
    )


def _parse_verb(raw, where) -> VerbComplex:
    finite = _require(raw, "finite", where, list)
    _refuse_unknown(raw, ("finite", "nonfinite"), where)
    nonfinite = raw.get("nonfinite", [])
    for name, tokens in (("finite", finite), ("nonfinite", nonfinite)):
        if not isinstance(tokens, list) or not _all_words(tokens):
            raise DocumentError(f"{where}.{name}: must be a list of strings, none of them empty or blank")
    return VerbComplex(finite=tuple(finite), nonfinite=tuple(nonfinite))


def _parse_stress(raw, known, where) -> frozenset[str]:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: must be a list of constituent ids")
    for cid in raw:
        if not isinstance(cid, str):
            raise DocumentError(f"{where}: entries must be constituent ids, got {cid!r}")
        if cid not in known:
            raise DocumentError(f"{where}: unknown constituent id {cid!r}")
    return frozenset(raw)


def parse_clause(raw, where="clause") -> ClauseSpec:
    """A clause in any mode; its constituents keep their order, and ``stress``
    may name some of them (only analysis reads it)."""
    raw_type = _require(raw, "clause_type", where, str)
    _refuse_unknown(raw, ("clause_type", "verb", "constituents", "complementizer", "stress"), where)
    try:
        clause_type = ClauseType(raw_type)
    except ValueError:
        raise DocumentError(f"{where}: unknown clause_type {raw_type!r}") from None
    verb = _parse_verb(_require(raw, "verb", where), f"{where}.verb")
    complementizer = raw.get("complementizer")
    if complementizer is not None and not _all_words((complementizer,)):
        raise DocumentError(f"{where}.complementizer: must be a string, neither empty nor blank")
    constituents = tuple(
        _parse_constituent(c, f"{where}.constituents[{i}]")
        for i, c in enumerate(_require(raw, "constituents", where, list))
    )
    stress = _parse_stress(raw.get("stress", []), {c.id for c in constituents}, f"{where}.stress")
    return ClauseSpec(clause_type, verb, constituents, complementizer, stress)


def parse_tags(raw, where="tags") -> TagAssignment:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: must be an object mapping ids to tags")
    tags: TagAssignment = {}
    for cid, raw_tag in raw.items():
        try:
            tags[cid] = Tag(raw_tag)
        except ValueError:
            raise DocumentError(f"{where}.{cid}: unknown tag {raw_tag!r}") from None
    return tags


def parse_candidates(raw, where="candidates"):
    """Construct candidate readings, applying construction-time exclusions.

    Returns ``(candidates, excluded)`` where excluded lists ``(label, reason)``
    pairs for readings impossible to build, e.g. a PP adjunct on a pronominal
    head.  The reports address every candidate, excluded or not, by its
    label, so labels must be non-empty and distinct.
    """
    if not isinstance(raw, list) or not raw:
        raise DocumentError(f"{where}: must be a non-empty list")
    candidates = []
    excluded = []
    labels = set()
    for i, raw_candidate in enumerate(raw):
        label = _require(raw_candidate, "label", f"{where}[{i}]", str)
        _refuse_unknown(raw_candidate, ("label", "observed", "constraint_context", "np_attachment"), f"{where}[{i}]")
        if not label:
            raise DocumentError(f"{where}[{i}].label: must not be empty")
        if label in labels:
            raise DocumentError(f"{where}[{i}].label: duplicate label {label!r}")
        labels.add(label)
        attachment = raw_candidate.get("np_attachment")
        if attachment is not None:
            head_is_pronoun = _require(attachment, "head_is_pronoun", f"{where}[{i}].np_attachment", bool)
            _refuse_unknown(attachment, ("head_is_pronoun",), f"{where}[{i}].np_attachment")
            # Pronouns take no adjuncts, so the reading cannot be built.
            if head_is_pronoun:
                excluded.append((label, "pronominal heads take no NP adjunct"))
                continue
        clause = parse_clause(
            _require(raw_candidate, "observed", f"{where}[{i}]"),
            f"{where}[{i}].observed",
        )
        context = raw_candidate.get("constraint_context", [])
        if not isinstance(context, list) or not all(isinstance(atom, str) for atom in context):
            raise DocumentError(f"{where}[{i}].constraint_context: must be a list of strings")
        for atom in context:
            # Only NEGATED constrains a reading; a misspelt atom would drop the constraint.
            if atom != NEGATED:
                raise DocumentError(f"{where}[{i}].constraint_context: unknown atom {atom!r}")
        candidates.append(
            CandidateReading(
                label=label,
                clause=clause,
                constraint_context=frozenset(context),
            )
        )
    return tuple(candidates), tuple(excluded)


def parse_document(raw) -> ClauseDocument:
    if not isinstance(raw, dict):
        raise DocumentError("document: expected a JSON object")
    version = _require(raw, "schema_version", "document", str)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"document: unsupported schema_version {version!r}")
    raw_mode = _require(raw, "mode", "document", str)
    try:
        mode = Mode(raw_mode)
    except ValueError:
        raise DocumentError(f"document: unknown mode {raw_mode!r}") from None
    payload = _require(raw, "payload", "document", dict)
    _refuse_unknown(raw, ("schema_version", "mode", "payload"), "document")
    value = _require(payload, PAYLOAD_FIELDS[mode], "payload")
    _refuse_unknown(payload, _PAYLOAD_KEYS[mode], "payload")
    if mode is Mode.GENERATE:
        return ClauseDocument(mode=mode, clause=parse_clause(value), tags=parse_tags(payload.get("tags")))
    if mode is Mode.ANALYZE:
        return ClauseDocument(mode=mode, clause=parse_clause(value, "observed"))
    candidates, excluded = parse_candidates(value)
    return ClauseDocument(mode=mode, candidates=candidates, excluded=excluded)


def generate_report(surface: SurfaceOrder) -> dict:
    """The JSON form of a generated order, which ``generate`` prints."""
    return {
        "rendered": list(surface.rendered),
        "text": surface.text,
        "vorfeld": surface.vorfeld,
        "mittelfeld": list(surface.mittelfeld),
        "keys": {cid: dict(zip(KEY_FIELDS, key)) for cid, key in surface.keys},
    }


def variants_report(variants: tuple[OrderVariant, ...]) -> dict:
    """The JSON form of every realizable order, which ``generate --all-variants`` prints."""
    return {
        "variants": [
            {
                "order": list(v.order),
                "rendered": list(v.surface.rendered),
                "assignments": [{cid: tag.value for cid, tag in a} for a in v.assignments],
            }
            for v in variants
        ],
        "variant_count": len(variants),
    }


def error_report(err: Exception) -> dict:
    """The JSON form of a generation error, which every command prints on exit 2."""
    return {"error": {"type": type(err).__name__, "message": str(err)}}


def analysis_report(result: AnalysisResult) -> dict:
    """The JSON form of an analysis result."""
    return {
        "verdict": result.verdict.value,
        "theme": result.theme,
        "rheme": result.rheme,
        "focus": result.focus,
        "focus_options": list(result.focus_options),
        "explanation_count": len(result.explanations),
        "explanations": [
            {cid: tag.value for cid, tag in assignment} for assignment in result.explanations
        ],
        "markedness_cost": result.markedness_cost,
        "warning": (
            None
            if result.warning is None
            else {
                "verb": result.warning.verb_candidate,
                "vorfeld": result.warning.vorfeld_candidate,
            }
        ),
        "detected_focus": list(result.detected_focus),
    }


def disambiguate_report(ranked: tuple[RankedReading, ...], excluded: tuple[tuple[str, str], ...]) -> dict:
    """The JSON form of ranked readings and excluded candidates, which ``disambiguate`` prints."""
    return {
        "readings": [
            {
                "label": r.reading.label,
                "rank": r.rank,
                "constraint_ok": r.constraint_ok,
                "verdict": r.result.verdict.value,
                "markedness_cost": r.result.markedness_cost,
                "focus": r.result.focus,
            }
            for r in ranked
        ],
        "excluded": [{"label": label, "reason": reason} for label, reason in excluded],
    }
