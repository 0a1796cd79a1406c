"""Modifier dictionary: Hoberg position classes plus per-word ordering flags.

Each entry records the lemma's Hoberg (1981) position class and the flags the
analysis needs: whether the word can be rhematic, can carry contrastive
focus, and can occupy the Vorfeld.  Homonyms are separate readings under the
same lemma ("eher#26" earlier vs "eher#5" rather).  Words without an entry
default to fully flexible (rhematic, focusable, Vorfeld-capable).
"""

from __future__ import annotations

import io
from importlib import resources

from .clause import _set, _Value

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
    """Immutable lemma -> readings map; concurrent lookups are safe."""

    def __init__(self, entries):
        by_lemma: dict[str, list[LexEntry]] = {}
        by_key: dict[str, LexEntry] = {}
        for entry in entries:
            if entry.key in by_key:
                raise LexiconError(f"duplicate entry {entry.key}")
            by_key[entry.key] = entry
            by_lemma.setdefault(entry.lemma, []).append(entry)
        self._by_lemma = {
            lemma: tuple(sorted(readings, key=lambda e: e.reading_id))
            for lemma, readings in by_lemma.items()
        }
        self._by_key = by_key

    def lookup(self, lemma: str) -> tuple[LexEntry, ...]:
        """All readings for a lemma, stably ordered; empty if unknown."""
        return self._by_lemma.get(lemma, ())

    def get(self, key: str) -> LexEntry | None:
        """Resolve a ``lemma#reading_id`` key, or None."""
        return self._by_key.get(key)

    def entries(self) -> tuple[LexEntry, ...]:
        return tuple(self._by_key.values())

    def __len__(self):
        return len(self._by_key)


def _parse_bool(raw, lineno, column):
    if raw == "1":
        return True
    if raw == "0":
        return False
    raise LexiconError(f"line {lineno}: {column} must be 0 or 1, got {raw!r}")


def load_lexicon(source) -> Lexicon:
    """Load a lexicon from TSV text or a text stream.

    Columns, tab-separated: lemma, reading_id, hoberg_index, rhematic,
    focusable, vorfeld_capable, constraints (comma-joined atoms or ``-``),
    inferred, gloss.  Lines starting with ``#`` are comments.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    entries = []
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != len(_COLUMNS):
            raise LexiconError(
                f"line {lineno}: expected {len(_COLUMNS)} columns, got {len(fields)}"
            )
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
        if any(e.reading_id == reading_id for e in entries if e.lemma == lemma):
            raise LexiconError(f"line {lineno}: duplicate entry {lemma}#{reading_id}")
        entries.append(entry)
    return Lexicon(entries)


def load_default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    text = resources.files("wortfolge.data").joinpath("lexicon.tsv").read_text("utf-8")
    return load_lexicon(text)
