"""Exact shortest-path interdiction on rooted trees via node upgrades.

Upgrading a node raises every edge to its children from its base length to
its upgraded length at unit cost. :func:`solve_max` maximizes the shortest
root-leaf distance under a budget of upgrades; :func:`solve_cost` finds the
smallest budget reaching a target distance. Both are exact; brute-force
oracles and a seeded instance generator support verification.

The names in ``__all__`` are the public API; the rest of
``interdict.solver``, the dynamic program's records included, may change
without notice.
"""

from .errors import (CycleDetected, DisconnectedInput, DuplicateChild,
                     InstanceError, InterdictError, LeafInSet, NegativeWeight,
                     ParseError, TargetUnreachable, TooLargeForOracle,
                     TrivialTree, UpgradeBelowBase)
from .generate import SHAPES, GeneratorConfig, random_tree
from .instances import format_instance, load_instance, parse_instance
from .oracle import ORACLE_LIMIT, brute_force_cost, brute_force_max
from .solver import CostResult, build_tables, solve_cost, solve_max
from .tree import (RootedTree, Solution, all_upgraded_min_distance, build_tree,
                   evaluate_min_distance)

__version__ = "0.1.0"

__all__ = [
    "CostResult", "CycleDetected", "DisconnectedInput", "DuplicateChild",
    "GeneratorConfig", "InstanceError", "InterdictError",
    "LeafInSet", "NegativeWeight", "ORACLE_LIMIT", "ParseError", "RootedTree",
    "SHAPES", "Solution", "TargetUnreachable",
    "TooLargeForOracle", "TrivialTree", "UpgradeBelowBase",
    "all_upgraded_min_distance", "brute_force_cost",
    "brute_force_max", "build_tables", "build_tree",
    "evaluate_min_distance", "format_instance", "load_instance",
    "parse_instance", "random_tree", "solve_cost", "solve_max",
]
