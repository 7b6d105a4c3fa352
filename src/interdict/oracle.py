"""Brute-force oracles: exact by enumeration, for testing the fast solvers.

Guarded to small instances; these are the independent ground truth the
dynamic program and the minimum-budget search are verified against.
"""

from __future__ import annotations

from itertools import combinations

from .errors import TargetUnreachable, TooLargeForOracle, _decimal
from .tree import RootedTree, all_upgraded_min_distance, evaluate_min_distance

ORACLE_LIMIT = 25  # max non-leaf count enumerated


def _guard(tree: RootedTree) -> list[int]:
    candidates = sorted(tree.non_leaves)
    if len(candidates) > ORACLE_LIMIT:
        raise TooLargeForOracle(
            f"{len(candidates)} non-leaf nodes exceeds the oracle "
            f"limit of {ORACLE_LIMIT}")
    return candidates


def brute_force_max(tree: RootedTree, budget: int) -> tuple[int, frozenset[int]]:
    """Enumerate every upgrade set of size <= budget; exact optimum.

    Sets are visited in increasing size, lexicographically within a size,
    and only strict improvements are kept, so ties resolve to the smallest
    set first and the lexicographically first set within that size. Stops
    early once the all-upgraded ceiling is reached.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    candidates = _guard(tree)
    ceiling = all_upgraded_min_distance(tree)
    best_value = evaluate_min_distance(tree, ())
    best_set: frozenset[int] = frozenset()
    for size in range(1, min(budget, len(candidates)) + 1):
        if best_value >= ceiling:
            break
        for subset in combinations(candidates, size):
            value = evaluate_min_distance(tree, subset)
            if value > best_value:
                best_value = value
                best_set = frozenset(subset)
    return best_value, best_set


def brute_force_cost(tree: RootedTree, target: int) -> int:
    """Smallest budget whose brute-force optimum reaches ``target``."""
    if target < 0:
        raise ValueError(f"target {_decimal(target)} is below 0")
    candidates = _guard(tree)
    ceiling = all_upgraded_min_distance(tree)
    if target > ceiling:
        raise TargetUnreachable(target, ceiling)
    for k in range(len(candidates) + 1):
        value, _ = brute_force_max(tree, k)
        if value >= target:
            return k
    raise AssertionError("unreachable: ceiling check guarantees a hit")
