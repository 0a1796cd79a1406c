"""wortfolge: a rule engine for German constituent order.

Linearizes unordered clause specifications into contextually appropriate
surface orders via a single tagged canonical form, and analyzes observed
orders to recover theme, rheme and contrastive focus, including
grammaticality verdicts and focus-avoiding disambiguation of readings.
"""

from .analyze import (
    AnalysisResult,
    StressWarning,
    Verdict,
    analyze,
)
from .clause import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    Tag,
    VerbComplex,
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
)
from .slots import (
    SlotTable,
    build_slot_table,
    load_slot_table,
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
    "NoVorfeld",
    "OrderVariant",
    "RankedReading",
    "SlotTable",
    "StressWarning",
    "SurfaceOrder",
    "Tag",
    "TagAssignment",
    "VerbComplex",
    "Verdict",
    "analyze",
    "build_slot_table",
    "enumerate_orders",
    "linearize",
    "load_default_lexicon",
    "load_lexicon",
    "load_slot_table",
    "rank_readings",
]
