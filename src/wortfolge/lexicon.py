"""Modifier dictionary: Hoberg position classes plus per-word ordering flags.

Each entry records the lemma's Hoberg (1981) position class and the flags the
analysis needs: whether the word can be rhematic, can carry contrastive
focus, and can occupy the Vorfeld.  Homonyms are separate readings under the
same lemma ("eher#26" earlier vs "eher#5" rather).  Words without an entry
default to fully flexible (rhematic, focusable, Vorfeld-capable).
"""

from __future__ import annotations

from importlib import resources

from .clause import _set, _tsv_rows, _Value

#: Usage-constraint atoms an entry may carry.
NO_NEGATION = "NO_NEGATION"
KNOWN_CONSTRAINTS = frozenset({NO_NEGATION})

_COLUMNS = (
    "lemma",
    "reading_id",
    "hoberg_index",
    "rhematic",
    "focusable",
    "vorfeld_capable",
    "constraints",
    "inferred",
    "gloss",
)


class LexiconError(Exception):
    """Raised for malformed lexicon data; the message names the line."""


class LexEntry(_Value):
    __slots__ = _COLUMNS  # one field per lexicon file column, in file order

    def __init__(
        self,
        lemma: str,
        reading_id: str,
        hoberg_index: int,
        rhematic: bool = True,
        focusable: bool = True,
        vorfeld_capable: bool = True,
        constraints: frozenset[str] = frozenset(),
        inferred: bool = False,
        gloss: str = "",
    ):
        _set(self, "lemma", lemma)
        _set(self, "reading_id", reading_id)
        _set(self, "hoberg_index", hoberg_index)
        _set(self, "rhematic", rhematic)
        _set(self, "focusable", focusable)
        _set(self, "vorfeld_capable", vorfeld_capable)
        _set(self, "constraints", constraints)
        _set(self, "inferred", inferred)
        _set(self, "gloss", gloss)

    @property
    def key(self) -> str:
        return f"{self.lemma}#{self.reading_id}"


class Lexicon:
    """Immutable ``lemma#reading_id`` key -> entry map; concurrent lookups are safe."""

    def __init__(self, entries):
        by_key: dict[str, LexEntry] = {}
        for entry in entries:
            if entry.key in by_key:
                raise LexiconError(f"duplicate entry {entry.key}")
            by_key[entry.key] = entry
        self._by_key = by_key

    def get(self, key: str) -> LexEntry | None:
        """Resolve a ``lemma#reading_id`` key, or None."""
        return self._by_key.get(key)

    def entries(self) -> tuple[LexEntry, ...]:
        return tuple(self._by_key.values())


def _parse_bool(raw, lineno, column):
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise LexiconError(f"line {lineno}: {column} must be 0 or 1, got {raw!r}")


def load_lexicon(text: str) -> Lexicon:
    """Load a lexicon from TSV text.

    Columns, tab-separated: lemma, reading_id, hoberg_index, rhematic,
    focusable, vorfeld_capable, constraints (comma-joined atoms or ``-``),
    inferred, gloss.  Lines starting with ``#`` are comments.
    """
    entries = {}
    for lineno, fields in _tsv_rows(text, len(_COLUMNS), LexiconError):
        lemma, reading_id, raw_index, raw_rh, raw_foc, raw_vf, raw_constraints, raw_inf, gloss = fields
        if not lemma or not reading_id:
            raise LexiconError(f"line {lineno}: empty lemma or reading_id")
        try:
            index = int(raw_index)
        except ValueError:
            raise LexiconError(f"line {lineno}: bad Hoberg index {raw_index!r}") from None
        if not 1 <= index <= 44:
            raise LexiconError(f"line {lineno}: Hoberg index {index} outside 1..44")
        constraints = frozenset()
        if raw_constraints != "-":
            atoms = frozenset(a for a in raw_constraints.split(",") if a)
            unknown = atoms - KNOWN_CONSTRAINTS
            if unknown:
                raise LexiconError(f"line {lineno}: unknown constraint {sorted(unknown)}")
            constraints = atoms
        entry = LexEntry(
            lemma=lemma,
            reading_id=reading_id,
            hoberg_index=index,
            rhematic=_parse_bool(raw_rh, lineno, "rhematic"),
            focusable=_parse_bool(raw_foc, lineno, "focusable"),
            vorfeld_capable=_parse_bool(raw_vf, lineno, "vorfeld_capable"),
            constraints=constraints,
            inferred=_parse_bool(raw_inf, lineno, "inferred"),
            gloss=gloss,
        )
        if entry.key in entries:
            raise LexiconError(f"line {lineno}: duplicate entry {entry.key}")
        entries[entry.key] = entry
    return Lexicon(entries.values())


def load_default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    text = resources.files("wortfolge.data").joinpath("lexicon.tsv").read_text("utf-8")
    return load_lexicon(text)
