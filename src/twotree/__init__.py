"""Exact resistance distance in straight and bent linear 2-trees.

Three independent routes to the same rational number: closed Fibonacci/Lucas
formulas, a replayed triangle-to-star circuit reduction, and exact Laplacian
solves, plus an executable catalogue of the identities tying them together.
"""

from .formulas import (
    BentParams,
    bent_resistance_alternating,
    bent_resistance_product,
    straight_pair_resistance,
    tail_sum,
    tail_sum_closed_form,
    telescoping_difference,
)
from .graphs import (
    GraphError,
    WeightedGraph,
    bent_2tree,
    straight_2tree,
)
from .identities import (
    PROFILES,
    REGISTRY,
    Identity,
    IdentityReport,
    UnknownIdentityError,
    check_identity,
    run_all,
)
from .rational import (
    as_rational,
    decimal_string,
    parallel_combine,
    ratio_string,
    series_combine,
)
from .reduction import (
    ReductionError,
    ReductionState,
    StepRecord,
    TailTriple,
    delta_y,
    reduce_bent,
    reduce_straight_chain,
    reduce_straight_state,
)
from .resistance import resistance_exact, resistance_float
from .sequences import fib, index_limit, lucas

__version__ = "0.1.0"

__all__ = [
    "BentParams",
    "GraphError",
    "Identity",
    "IdentityReport",
    "PROFILES",
    "REGISTRY",
    "ReductionError",
    "ReductionState",
    "StepRecord",
    "TailTriple",
    "UnknownIdentityError",
    "WeightedGraph",
    "as_rational",
    "bent_2tree",
    "bent_resistance_alternating",
    "bent_resistance_product",
    "check_identity",
    "decimal_string",
    "delta_y",
    "fib",
    "index_limit",
    "lucas",
    "parallel_combine",
    "ratio_string",
    "reduce_bent",
    "reduce_straight_chain",
    "reduce_straight_state",
    "resistance_exact",
    "resistance_float",
    "run_all",
    "series_combine",
    "straight_2tree",
    "straight_pair_resistance",
    "tail_sum",
    "tail_sum_closed_form",
    "telescoping_difference",
]
