"""The canonical-form slot table: default positions plus theme/rheme/focus slots.

A single comprehensive precedence table assigns every constituent a position
key.  Untagged constituents get a fixed default slot from category and
features; tagging a constituent THEME, RHEME or FOCUS moves it into the
corresponding tagged slot instead.  Comparing the resulting keys yields the
surface order of the Mittelfeld.

The table itself ships as ``data/slot_table.tsv`` so the transcription can be
reviewed independently of the matching code.

A constituent's slot keys depend only on its signature (category,
definiteness, animacy, pronoun and SVC flags, Hoberg index), and so do its
own defects (a bad Hoberg index, unresolved features), its typically
rhematic flag and its cooccurrence group.  Each table instance keeps a
lazily filled index from signature to these facts; the table is scanned
once per signature, on its first lookup, and a defective signature is
never filed.  The lexical veto depends on the lexicon entry, not on the
signature, so it is applied outside the index.
"""

from __future__ import annotations

import functools
from importlib import resources

from .clause import (
    FEATURE_KEYED_CATEGORIES, MINUS, NA, PLUS, _FOCUS, _RHEME, Category, Constituent, Tag, _set, _tsv_rows, _Value,
)


class SlotTableError(Exception):
    """Raised for malformed slot-table data."""


class SlotPattern(_Value):
    """One slot member: category plus feature/tag/index requirements.

    A ``category`` of None matches any category.
    """

    __slots__ = (
        "row", "slot", "sub_rank", "category", "definite", "animate", "pron", "svc", "required_tag",
        "hoberg_lo", "hoberg_hi", "annotation",
    )

    def __init__(
        self,
        row: int,
        slot: int,
        sub_rank: int,
        category: Category | None,
        definite: str | None = None,
        animate: str | None = None,
        pron: bool | None = None,
        svc: bool = False,
        required_tag: Tag | None = None,
        hoberg_lo: int | None = None,
        hoberg_hi: int | None = None,
        annotation: str = "",
    ):
        _set(self, "row", row)
        _set(self, "slot", slot)
        _set(self, "sub_rank", sub_rank)
        _set(self, "category", category)
        _set(self, "definite", definite)
        _set(self, "animate", animate)
        _set(self, "pron", pron)
        _set(self, "svc", svc)
        _set(self, "required_tag", required_tag)
        _set(self, "hoberg_lo", hoberg_lo)
        _set(self, "hoberg_hi", hoberg_hi)
        _set(self, "annotation", annotation)

    def matches(self, c: Constituent, tag: Tag | None) -> bool:
        if tag is not self.required_tag:
            return False
        # SVC parts match only the svc-marked slot, and it matches only them.
        if c.features.svc != self.svc:
            return False
        if self.category is not None and c.category is not self.category:
            return False
        if self.pron is not None and c.features.pronominal != self.pron:
            return False
        if self.definite is not None:
            if c.features.pronominal or c.features.definite != self.definite:
                return False
        if self.animate is not None:
            if c.features.pronominal or c.features.animate != self.animate:
                return False
        if self.hoberg_lo is not None:
            if c.hoberg_index is None or not self.hoberg_lo <= c.hoberg_index <= self.hoberg_hi:
                return False
        return True


#: The taggings a constituent is placed under, in column order of
#: the placements of :func:`_signature`.
KEY_TAGS = (None, Tag.THEME, Tag.RHEME, Tag.FOCUS)


class SlotTable:
    """Ordered slot patterns plus derived landmarks (theme/rheme/focus slots)."""

    def __init__(self, patterns):
        self.patterns = tuple(patterns)
        # signature -> the facts of :func:`_signature`, filed on its first lookup
        self._index = {}
        slots = sorted({p.slot for p in self.patterns})
        if slots != list(range(1, len(slots) + 1)):
            raise SlotTableError("slot ordinals must be dense from 1")
        self.slot_count = len(slots)
        tag_slots = {tag: sorted({p.slot for p in self.patterns if p.required_tag is tag}) for tag in Tag}
        for tag in (Tag.THEME, Tag.RHEME):
            if len(tag_slots[tag]) != 1:
                raise SlotTableError(f"expected exactly one {tag.value} slot")
        if len(tag_slots[Tag.FOCUS]) != 2:
            raise SlotTableError("expected the early and the general FOCUS slots")
        (self.theme_slot,), (self.rheme_slot,) = tag_slots[Tag.THEME], tag_slots[Tag.RHEME]
        self.focus_slots = tuple(tag_slots[Tag.FOCUS])
        if not self.theme_slot < self.rheme_slot < self.focus_slots[-1]:
            raise SlotTableError("THEME slot must precede RHEME slot must precede general FOCUS slot")
        row5_slots = [p.slot for p in self.patterns if p.row >= 5]
        if not row5_slots:
            raise SlotTableError("no row-5+ pattern marks the late field")
        self.late_field_start = min(row5_slots)
        band_slots = [
            p.slot for p in self.patterns if p.category is Category.M and p.required_tag is None
        ]
        if not band_slots:
            raise SlotTableError("no untagged M pattern marks the modifier band")
        self.modifier_band_start = min(band_slots)


def _parse_features(raw: str, lineno: int):
    """Parse the feature mini-notation into (definite, animate, pron, svc)."""
    definite = animate = None
    pron: bool | None = None
    svc = False
    if raw == "-":
        return definite, animate, pron, svc
    if raw == "pron":
        return definite, animate, True, svc
    if raw == "-pron":
        return definite, animate, False, svc
    if raw == "svc":
        return definite, animate, pron, True
    rest = raw
    while rest:
        sign = rest[0]
        if sign not in (PLUS, MINUS) or len(rest) < 2:
            raise SlotTableError(f"line {lineno}: bad feature notation {raw!r}")
        letter, rest = rest[1], rest[2:]
        if letter == "d":
            definite = sign
        elif letter == "a":
            animate = sign
        else:
            raise SlotTableError(f"line {lineno}: unknown feature {sign}{letter!r}")
    # Definiteness/animacy requirements exclude pronouns: pronoun slots key
    # on the pron flag alone.
    return definite, animate, False, svc


def load_slot_table(text: str) -> SlotTable:
    """Parse slot-table TSV text (see ``data/slot_table.tsv`` for the format)."""
    patterns = []
    for lineno, fields in _tsv_rows(text, 8, SlotTableError):
        raw_row, raw_slot, raw_sub, raw_cat, raw_feats, raw_tag, raw_range, annotation = fields
        try:
            row, slot, sub_rank = int(raw_row), int(raw_slot), int(raw_sub)
        except ValueError:
            raise SlotTableError(f"line {lineno}: bad row/slot/sub_rank") from None
        try:
            category = None if raw_cat == "*" else Category(raw_cat)
        except ValueError:
            raise SlotTableError(f"line {lineno}: unknown category {raw_cat!r}") from None
        definite, animate, pron, svc = _parse_features(raw_feats, lineno)
        try:
            required_tag = None if raw_tag == "-" else Tag(raw_tag)
        except ValueError:
            raise SlotTableError(f"line {lineno}: unknown tag {raw_tag!r}") from None
        hoberg_lo = hoberg_hi = None
        if raw_range != "-":
            try:
                lo, hi = raw_range.split("-")
                hoberg_lo, hoberg_hi = int(lo), int(hi)
            except ValueError:
                raise SlotTableError(f"line {lineno}: bad index range {raw_range!r}") from None
            if hoberg_lo > hoberg_hi:
                raise SlotTableError(f"line {lineno}: inverted index range {raw_range!r}")
            if hoberg_lo < 1 or hoberg_hi > 44:
                raise SlotTableError(f"line {lineno}: index range {raw_range!r} outside 1..44")
        patterns.append(
            SlotPattern(
                row=row,
                slot=slot,
                sub_rank=sub_rank,
                category=category,
                definite=definite,
                animate=animate,
                pron=pron,
                svc=svc,
                required_tag=required_tag,
                hoberg_lo=hoberg_lo,
                hoberg_hi=hoberg_hi,
                annotation=annotation if annotation != "-" else "",
            )
        )
    return SlotTable(patterns)


@functools.lru_cache(maxsize=None)
def build_slot_table() -> SlotTable:
    """The slot table shipped with the package (a fixed constant)."""
    text = resources.files("wortfolge.data").joinpath("slot_table.tsv").read_text("utf-8")
    return load_slot_table(text)


def _lexical_veto(tag: Tag | None, entry) -> str | None:
    if entry is None or tag is None:
        return None
    if tag is _RHEME and not entry.rhematic:
        return f"{entry.lemma} is lexically non-rhematic"
    if tag is _FOCUS and not entry.focusable:
        return f"{entry.lemma} is lexically non-focusable"
    return None


def _signature(table: SlotTable, c: Constituent, signature: tuple | None):
    """The facts of the constituent's signature: ``(defects, placements, rhematic, group)``.

    ``defects`` are the signature's own, without the constituent id; a
    defective signature has no placements and no rhematic flag.
    ``placements`` holds the ``(slot, sub_rank, hoberg)`` keys under each of
    :data:`KEY_TAGS` before any lexical veto, None without a slot: the first
    match in table order, for FOCUS the first of each slot.  ``group`` is 0
    for the nominatives, 1 for SIT/DIR/EXP, else None.  A category that is
    not a :class:`Category` is refused.  This is the index's miss path: the
    compiled clause looks ``signature``, its index key, up first, and passes
    None for a key it could not hash.  A miss scans the patterns once; its
    facts are filed only if they hold no defect, which bounds the index.
    The key holds the Hoberg index's type, so ``26``, ``26.0`` and ``True``
    stay apart.
    """
    if c.category.__class__ is not Category:
        return (f"unknown category {c.category!r}",), None, None, None
    f, hoberg = c.features, c.hoberg_index
    defects = []
    if c.category is Category.M:
        if hoberg is None:
            defects.append("modifier without Hoberg index")
        elif not isinstance(hoberg, int) or isinstance(hoberg, bool):
            defects.append(f"Hoberg index {hoberg!r} is not an integer")
        elif not 1 <= hoberg <= 44:
            defects.append(f"Hoberg index {hoberg} outside 1..44")
    elif hoberg is not None:
        defects.append("Hoberg index on non-modifier")
    if c.category in FEATURE_KEYED_CATEGORIES and not f.pronominal and not f.svc and NA in (f.definite, f.animate):
        defects.append(f"{c.category.value} requires resolved definiteness/animacy")
    group = 0 if c.category is Category.N else 1 if c.category in (Category.SIT, Category.DIR, Category.EXP) else None
    if defects:
        return tuple(defects), None, None, group
    placements = tuple(_scan(table, c, tag) for tag in KEY_TAGS)
    # Typically rhematic: late-field complements (PO, SIT/DIR/EXP, nominal genitives, SVC parts,
    # non-pronominal Nom/Adj) and indefinite A/D open the clause only under contrastive focus.
    rhematic = placements[0] is not None and (
        c.category in (Category.A, Category.D) and c.indefinite or placements[0][0][0] >= table.late_field_start
    )
    facts = (), placements, rhematic, group
    if signature is not None:
        table._index[signature] = facts
    return facts


def _scan(table: SlotTable, c: Constituent, tag: Tag | None) -> tuple[tuple[int, int, int], ...] | None:
    """The first-match scan of the patterns in table order behind :func:`_signature`."""
    keys = []
    seen_slots = set()
    for pattern in table.patterns:
        if pattern.slot in seen_slots or not pattern.matches(c, tag):
            continue
        seen_slots.add(pattern.slot)
        keys.append((pattern.slot, pattern.sub_rank, c.hoberg_index or 0))
        if tag is not Tag.FOCUS:
            break  # non-focus placements are unique: first match only
    return tuple(keys) or None
