"""wortfolge: a rule engine for German constituent order.

Linearizes unordered clause specifications into contextually appropriate
surface orders via a single tagged canonical form, and analyzes observed
orders to recover theme, rheme and contrastive focus, including
grammaticality verdicts and focus-avoiding disambiguation of readings.
"""

from .analyze import (
    AnalysisResult,
    ObservedClause,
    StressWarning,
    Verdict,
    analyze,
    detect_focus_constructions,
    explain_order,
    observe,
    spec_of,
)
from .clause import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    Tag,
    VerbComplex,
    validate_clause,
)
from .disambiguate import (
    NEGATED,
    CandidateReading,
    RankedReading,
    rank_readings,
)
from .lexicon import (
    LexEntry,
    Lexicon,
    LexiconError,
    NO_NEGATION,
    dump_lexicon,
    load_default_lexicon,
    load_lexicon,
)
from .linearize import (
    CooccurrenceViolation,
    InexpressibleTags,
    LinearizeError,
    NoVorfeld,
    OrderVariant,
    SurfaceOrder,
    TagAssignment,
    enumerate_orders,
    linearize,
    realizations,
)
from .slots import (
    NoSlotError,
    SlotPattern,
    SlotTable,
    SortKey,
    all_sort_keys,
    build_slot_table,
    load_slot_table,
    sort_key,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "CandidateReading",
    "Category",
    "ClauseSpec",
    "ClauseType",
    "Constituent",
    "CooccurrenceViolation",
    "FeatureBundle",
    "InexpressibleTags",
    "LexEntry",
    "Lexicon",
    "LexiconError",
    "LinearizeError",
    "NEGATED",
    "NO_NEGATION",
    "NoSlotError",
    "NoVorfeld",
    "ObservedClause",
    "OrderVariant",
    "RankedReading",
    "SlotPattern",
    "SlotTable",
    "SortKey",
    "StressWarning",
    "SurfaceOrder",
    "Tag",
    "TagAssignment",
    "VerbComplex",
    "Verdict",
    "all_sort_keys",
    "analyze",
    "build_slot_table",
    "detect_focus_constructions",
    "dump_lexicon",
    "enumerate_orders",
    "explain_order",
    "linearize",
    "load_default_lexicon",
    "load_lexicon",
    "load_slot_table",
    "observe",
    "rank_readings",
    "realizations",
    "sort_key",
    "spec_of",
    "validate_clause",
]
