"""Linear-programming substrate: the Δ-bounded forest polytope LP."""

from .forest_core import (
    EXACT_THRESHOLD,
    CoreLPResult,
    ForestLPError,
    batched_tree_values,
    column_generation_component,
    cutting_plane_component,
    exhaustive_component_value,
    solve_component,
    tree_component_value,
    violated_forest_sets,
)

__all__ = [
    "EXACT_THRESHOLD",
    "CoreLPResult",
    "ForestLPError",
    "batched_tree_values",
    "column_generation_component",
    "cutting_plane_component",
    "exhaustive_component_value",
    "solve_component",
    "tree_component_value",
    "violated_forest_sets",
]
