"""Exact independence ratios and extremal periodic densities of distance graphs."""

from .core import (
    BlockList,
    BlockSyntaxError,
    DistanceSet,
    ExpansionLimitError,
    IndependenceVerdict,
    normalize,
    parse_block_notation,
    verify_periodic_independent,
)
from .ratio import InexactResultError, fractional_chromatic, independence_ratio, independence_ratios
from .registry import (
    Family,
    FormulaVerdict,
    Prediction,
    closed_form,
    get_family,
    list_families,
    verify_family,
)
from .search import (
    AlphaTable,
    BudgetExceeded,
    RatioReport,
    SearchBudget,
    alpha_interval,
    compute_ratio,
)
from .stategraph import (
    Coloring,
    CycleWitness,
    Domination,
    EngineCaps,
    IdentifyingCode,
    InfeasibleError,
    StateGraph,
    StateSpaceError,
    build_state_graph,
    extremal_mean_cycle,
    independence_ratio_exact,
    min_dominating_density,
    min_identifying_density,
    periodic_coloring,
)

__version__ = "0.1.0"
