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
    telescoping_difference,
)
from .graphs import (
    GraphError,
    WeightedGraph,
    bent_2tree,
    straight_2tree,
)
from .rational import ratio_string
from .reduction import (
    ReductionError,
    reduce_bent,
    reduce_straight_chain,
    reduce_straight_state,
)
from .resistance import resistance_exact, resistance_float
from .sequences import fib, lucas

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only `verify` needs the identity catalogue, so it loads on first access.
    if name in ("REGISTRY", "run_all"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BentParams",
    "GraphError",
    "REGISTRY",
    "ReductionError",
    "WeightedGraph",
    "bent_2tree",
    "bent_resistance_alternating",
    "bent_resistance_product",
    "fib",
    "lucas",
    "ratio_string",
    "reduce_bent",
    "reduce_straight_chain",
    "reduce_straight_state",
    "resistance_exact",
    "resistance_float",
    "run_all",
    "straight_2tree",
    "straight_pair_resistance",
    "telescoping_difference",
]
