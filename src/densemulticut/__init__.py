"""Multicut solvers for complete graphs with inner-product edge costs."""

from .core import (
    AlphaSign,
    ContractionForest,
    ContractionState,
    FeatureMatrix,
    Partition,
    SparseWeightedGraph,
    enumerate_optimal,
    materialize_cost_matrix,
    objective,
    similarity,
)
from .errors import ArgumentError, CapacityError, StateError

__version__ = "0.1.0"

__all__ = [
    "AlphaSign",
    "ArgumentError",
    "CapacityError",
    "ContractionForest",
    "ContractionState",
    "FeatureMatrix",
    "Partition",
    "SparseWeightedGraph",
    "StateError",
    "enumerate_optimal",
    "materialize_cost_matrix",
    "objective",
    "similarity",
    "__version__",
]
