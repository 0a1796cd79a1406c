"""Core clause-domain types: categories, features, constituents, clause specs.

Everything here is immutable value data with no behaviour beyond construction
and validation, so instances are safe to share freely.  A clause carries no
tags: theme, rheme and focus are given separately, as an assignment from
constituent ids to tags.  The clause-level checks (verb, complementizer,
cooccurrence, assignment) live here; a constituent's own defects are facts
of its signature, kept in the slot table's index beside its slot keys.

The value types of the package are plain classes on :class:`_Value`: their
fields are their ``__slots__``, set once in ``__init__``, and equality, hash,
repr and ``_replace`` are field-wise.  They are not dataclasses because every
CLI call is a fresh process: importing ``dataclasses`` and building the
frozen dataclasses cost each call about 30 ms of start-up on a 2-core x86-64
host, the plain classes well under a millisecond.

Per-call code reads no enum member through its class: on Python 3.11.7
``enum.EnumType`` defines ``__getattr__``, so ``ClauseType.V2`` costs about
120 ns against 10 ns for a module global (``timeit`` on a 2-core x86-64
host, loop included).  It reads ``CompiledClause.v2``, decided once, and the
members bound beside each enum (``_V2``, ``_THEME``, ``_M``, ...).
"""

from __future__ import annotations

from enum import Enum

_set = object.__setattr__


class _Value:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__`` (a subclass of a value type
    lists only its own) and sets them in ``__init__`` with ``_set``, after
    any coercion or check; assigning or deleting a field raises
    ``AttributeError``.  ``==`` compares the type and the fields, and
    ``_replace`` rebuilds through the constructor, so it re-runs both.
    ``SurfaceOrder``, ``OrderVariant`` and ``AnalysisResult``, built on every
    call, use each field's slot descriptor ``__set__`` instead: half the cost.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")


def _tsv_rows(text: str, columns: int, error: type[Exception]):
    """Yield ``(lineno, fields)`` for each data line of the TSV ``text``.

    Lines end at ``"\\n"`` only; blank lines and ``#`` comment lines are
    skipped.  A line without exactly ``columns`` tab-separated fields raises
    ``error``, naming the line.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != columns:
            raise error(f"line {lineno}: expected {columns} columns, got {len(fields)}")
        yield lineno, fields


class Category(str, Enum):
    """Syntactic category of an orderable constituent.

    Verbs are not constituents: they live in :class:`VerbComplex`, since
    German verb placement admits no variation.
    """

    N = "N"        # nominative complement (subject)
    A = "A"        # accusative complement
    D = "D"        # dative complement
    G = "G"        # genitive complement
    PO = "PO"      # prepositional object
    SIT = "SIT"    # situative complement
    DIR = "DIR"    # directional complement
    EXP = "EXP"    # expansive complement
    NOM = "NOM"    # nominal complement
    ADJ = "ADJ"    # adjectival complement
    M = "M"        # modifier (adverbial), carries a Hoberg position class


_M = Category.M

#: Categories whose slot patterns key on definiteness/animacy; for these the
#: tri-state features must be resolved to +/- on non-pronominal, non-SVC
#: constituents, which keeps the default slot assignment total.
FEATURE_KEYED_CATEGORIES = frozenset(
    {Category.N, Category.A, Category.D, Category.PO}
)


class Tag(str, Enum):
    """Information-structure tag an assignment gives a constituent (at most one)."""

    THEME = "THEME"
    RHEME = "RHEME"
    FOCUS = "FOCUS"


_THEME, _RHEME, _FOCUS = Tag.THEME, Tag.RHEME, Tag.FOCUS


class ClauseType(str, Enum):
    V2 = "V2"  # declarative matrix clause: finite verb in second position
    VF = "VF"  # subordinate clause: verb cluster in final position


_V2, _VF = ClauseType.V2, ClauseType.VF


PLUS = "+"
MINUS = "-"
NA = "na"

TRISTATE_VALUES = (PLUS, MINUS, NA)


class FeatureBundle(_Value):
    """Definiteness/animacy tri-states plus pronominal and SVC flags.

    Pronominal constituents are matched on the pronoun flag alone (their
    definiteness/animacy are ignored during slot matching), and parts of
    support-verb constructions only ever match the clause-final SVC slot.
    """

    __slots__ = ("definite", "animate", "pronominal", "svc")

    def __init__(self, definite: str = NA, animate: str = NA, pronominal: bool = False, svc: bool = False):
        for name, flag in (("pronominal", pronominal), ("svc", svc)):
            if flag is not True and flag is not False:
                raise ValueError(f"{name} must be true or false")
        for name, value in (("definite", definite), ("animate", animate)):
            if value not in TRISTATE_VALUES:
                raise ValueError(f"{name} must be one of {TRISTATE_VALUES}, got {value!r}")
        _set(self, "definite", definite)
        _set(self, "animate", animate)
        _set(self, "pronominal", pronominal)
        _set(self, "svc", svc)


class Constituent(_Value):
    """One orderable clause element.

    Constituents are pre-tokenized records; morphology, case assignment and
    parsing of raw text happen upstream.  ``hoberg_index`` is present exactly
    for modifiers, ``lexicon_key`` points at a dictionary reading
    (``"lemma#reading_id"``) when per-word flags matter.
    """

    __slots__ = ("id", "category", "surface", "features", "hoberg_index", "lexicon_key")

    def __init__(
        self,
        id: str,
        category: Category,
        surface: tuple[str, ...],
        features: FeatureBundle = FeatureBundle(),
        hoberg_index: int | None = None,
        lexicon_key: str | None = None,
    ):
        _set(self, "id", id)
        _set(self, "category", category)
        _set(self, "surface", tuple(surface))
        _set(self, "features", features)
        _set(self, "hoberg_index", hoberg_index)
        _set(self, "lexicon_key", lexicon_key)

    @property
    def indefinite(self) -> bool:
        return self.features.definite == MINUS


class VerbComplex(_Value):
    """The clause's verb material: finite part plus optional non-finite rest."""

    __slots__ = ("finite", "nonfinite")

    def __init__(self, finite: tuple[str, ...], nonfinite: tuple[str, ...] = ()):
        _set(self, "finite", tuple(finite))
        _set(self, "nonfinite", tuple(nonfinite))


class ClauseSpec(_Value):
    """A clause: type, verb complex, constituents, and the stress marks analysis reads.

    The order of ``constituents`` is the input order.  Generation reorders
    them and reads it only to break ties between equal slot keys (the input
    ordinal, the last field of each key in ``SurfaceOrder.keys``); analysis
    reads it as the observed surface order, in V2 with the Vorfeld occupant
    first and in VF after the complementizer.  ``stress`` names the
    constituents the input marks as contrastively stressed (the capitals
    convention); only analysis reads it, as a hard constraint on the
    explanations.
    """

    __slots__ = ("clause_type", "verb", "constituents", "complementizer", "stress")

    def __init__(
        self,
        clause_type: ClauseType,
        verb: VerbComplex,
        constituents: tuple[Constituent, ...],
        complementizer: str | None = None,
        stress: frozenset[str] = frozenset(),
    ):
        _set(self, "clause_type", clause_type)
        _set(self, "verb", verb)
        _set(self, "constituents", tuple(constituents))
        _set(self, "complementizer", complementizer)
        _set(self, "stress", frozenset(stress))

    @property
    def order(self) -> tuple[str, ...]:
        return tuple([c.id for c in self.constituents])

    def reordered(self, order, stress=()) -> ClauseSpec:
        """The clause with its constituents in ``order`` (ids) and the marks ``stress``."""
        return self._replace(constituents=[self.by_id(cid) for cid in order], stress=stress)

    def by_id(self, cid: str) -> Constituent:
        for c in self.constituents:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def subject(self) -> Constituent | None:
        for c in self.constituents:
            if c.category is Category.N:
                return c
        return None


def _all_words(tokens) -> bool:
    """Whether every surface or verb token is a string with a visible character."""
    try:
        return all(map(str.strip, tokens))
    except TypeError:  # a token that is not a string
        return False


#: The tags an assignment may give, for the check that no tag is given twice.
_TAGS = frozenset(Tag)


def _violations(spec: ClauseSpec, tags: dict, ids: dict, nominatives: list, exclusives: list):
    """The clause-level defects of the clause under the assignment ``tags``.

    The compiled clause checks each constituent and passes the ``ids`` it
    saw and the input ordinals of the nominative and the SIT/DIR/EXP group.
    Returns three lists of violations, never raising: cooccurrence (the
    slash groups, the focus slot holding more than one constituent), which
    no assignment can order; the verb's and the complementizer's; and the
    assignment's (unknown ids, a value whose class is not :class:`Tag`, two
    carriers of one tag).  Without tags it returns after the clause-level
    checks.
    """
    invalid = []
    if not spec.verb.finite:
        invalid.append("verb complex has no finite part")
    if not _all_words(spec.verb.finite + spec.verb.nonfinite):
        invalid.append("verb complex has a blank or non-string token")
    if spec.complementizer is not None:
        if spec.clause_type is not _VF:
            invalid.append("complementizer requires a verb-final clause")
        if not _all_words((spec.complementizer,)):
            invalid.append("blank or non-string complementizer")

    cooccurrence = []
    if len(nominatives) > 1 or len(exclusives) > 1:
        for group, name in ((nominatives, "nominative alternatives"), (exclusives, "SIT/DIR/EXP")):
            if len(group) > 1:
                cooccurrence.append(f"{name} cannot cooccur: {', '.join([spec.constituents[i].id for i in group])}")
    if not tags:  # analysis without a stress mark, and enumeration
        return cooccurrence, invalid, []
    try:
        given = set(tags.values())
    except TypeError:  # an unhashable value, which is no tag
        given = set()
    if len(given) < len(tags) or len(ids) < len(spec.constituents):  # else one constituent at most is focused
        focused = [c.id for c in spec.constituents if tags.get(c.id) is _FOCUS]
        if len(focused) > 1:
            cooccurrence.append(f"focus slot admits one constituent: {', '.join(focused)}")
    if len(given) == len(tags) and given <= _TAGS and tags.keys() <= ids.keys():
        for tag in given:  # a plain string equals its tag, so each value's class is asked too
            if tag.__class__ is not Tag:
                break
        else:
            return cooccurrence, invalid, []
    assignment = [f"unknown constituent id {cid!r}" for cid in tags if cid not in ids]
    carriers = {tag: [] for tag in Tag}
    for cid, tag in tags.items():
        if tag.__class__ is Tag:
            carriers[tag].append(cid)
        else:
            assignment.append(f"{cid}: unknown tag {tag!r}")
    for tag, carrying in carriers.items():
        if len(carrying) > 1:
            assignment.append(f"{tag.value.lower()} cardinality: {', '.join(sorted(carrying))}")
    return cooccurrence, invalid, assignment
