"""Minimum-budget search: fewest upgrades to reach a target distance.

One table pass at the full budget (the upgradable count) holds the
budgeted optimum for every budget at once: ``root_best[k]`` is the best
value with ``k`` upgrades. That profile is non-decreasing, so the
smallest sufficient budget k* is its first index reaching the target, and
the witness is the backpointer walk started at k*. Cells at ``k <= k*``
read only lower indices and break ties towards the smallest index, so they
equal those of a pass capped at k*: the witness is ``solve_max(tree, k*)``.

Every table is capped by its subtree's upgradable count, so the pass is
O(n^2) by the tree-knapsack argument (Johnson & Niemi, Math. Oper. Res.
1983), below the paper's O(n^3 log n) bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TargetUnreachable, _decimal
from .solver import _read_solution, build_tables
from .tree import RootedTree, Solution, all_upgraded_min_distance


@dataclass(frozen=True)
class BudgetQuery:
    """Trace of one search: target, final bracket, table passes as
    (budget, value).

    ``bounds`` is ``(k* - 1, k*)``, or ``(0, 0)`` when k* = 0. ``probes``
    holds the single full-budget pass: the upgradable count and the
    ceiling.
    """

    target: int
    bounds: tuple[int, int]
    probes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CostResult:
    """Minimal budget, a witnessing solution of value >= target, and the query."""

    kstar: int
    solution: Solution
    query: BudgetQuery


def solve_cost(tree: RootedTree, target: int) -> CostResult:
    """Smallest number of node upgrades whose optimum reaches ``target``.

    Raises :class:`TargetUnreachable` (carrying the ceiling) when even
    upgrading every non-leaf node falls short.
    """
    if target < 0:
        raise ValueError(f"target {_decimal(target)} is below 0")
    ceiling = all_upgraded_min_distance(tree)
    if target > ceiling:
        raise TargetUnreachable(target, ceiling)

    tables = build_tables(tree, len(tree.non_leaves))
    profile = tables.root_best
    if (profile[1:] < profile[:-1]).any() or profile[-1] != ceiling:
        raise RuntimeError(
            "internal error: budget profile is not non-decreasing up to the "
            f"ceiling {ceiling}")
    kstar = int(profile.searchsorted(target, side="left"))
    bounds = (0, 0) if kstar == 0 else (kstar - 1, kstar)
    probes = ((tables.budget, int(profile[-1])),)
    return CostResult(kstar, _read_solution(tables, kstar),
                      BudgetQuery(target, bounds, probes))
