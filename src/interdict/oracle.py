"""Oracles for testing the fast solvers: exact by enumeration, and a
node-level reference dynamic program.

Brute force walks one stream of upgrade sets in increasing size and is
guarded to small instances. The reference profile runs on trees of a few
thousand nodes and shares no code with the chain decomposition or the
solver, so the two DPs check each other. These are the independent
ground truth the dynamic program and the minimum-budget search are
verified against.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, combinations

from .errors import TargetUnreachable, TooLargeForOracle, _decimal
from .tree import RootedTree, all_upgraded_min_distance, evaluate_min_distance

ORACLE_LIMIT = 25  # max non-leaf count enumerated


def _subsets(tree: RootedTree, largest: int) -> Iterator[tuple[int, ...]]:
    """Every set of at most ``largest`` non-leaf nodes, in increasing size
    and lexicographically within a size, as one lazy stream.

    Raises :class:`TooLargeForOracle` here, before any set is evaluated.
    """
    candidates = sorted(tree.non_leaves)
    if len(candidates) > ORACLE_LIMIT:
        raise TooLargeForOracle(
            f"{len(candidates)} non-leaf nodes exceeds the oracle "
            f"limit of {ORACLE_LIMIT}")
    sizes = range(min(largest, len(candidates)) + 1)
    return chain.from_iterable(combinations(candidates, s) for s in sizes)


def brute_force_max(tree: RootedTree, budget: int) -> tuple[int, frozenset[int]]:
    """Enumerate every upgrade set of size <= budget; exact optimum.

    Sets are visited in increasing size, lexicographically within a size,
    and only strict improvements are kept, so ties resolve to the smallest
    set first and the lexicographically first set within that size. Stops
    at the first set that reaches the all-upgraded ceiling, since no later
    set can improve on it.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    subsets = _subsets(tree, budget)
    ceiling = all_upgraded_min_distance(tree)
    best_value, best_set = -1, frozenset()  # every value is >= 0
    for subset in subsets:
        value = evaluate_min_distance(tree, subset)
        if value > best_value:
            best_value, best_set = value, frozenset(subset)
            if value >= ceiling:
                break
    return best_value, best_set


def brute_force_cost(tree: RootedTree, target: int) -> int:
    """Smallest budget whose brute-force optimum reaches ``target``: the
    size of the first set in the stream whose value reaches it. The sets
    come in increasing size, so the time grows with the answer."""
    if target < 0:
        raise ValueError(f"target {_decimal(target)} is below 0")
    subsets = _subsets(tree, len(tree.non_leaves))
    ceiling = all_upgraded_min_distance(tree)
    if target > ceiling:
        raise TargetUnreachable(target, ceiling)
    # The full set reaches the ceiling, so some set reaches the target.
    return next(len(subset) for subset in subsets
                if evaluate_min_distance(tree, subset) >= target)


def reference_profile(tree: RootedTree,
                      budget: int | None = None) -> list[int]:
    """Best value with at most ``k`` upgrades, for ``k = 0..budget``
    (default: every non-leaf node), by a node-level dynamic program.

    ``best[v][k]`` is the largest distance from ``v`` to its nearest leaf
    below with exactly ``k`` upgrades in ``v``'s subtree. For each choice
    of upgrading ``v`` or not, the children's rows, raised by ``u`` or
    ``w``, are joined by an explicit double loop over budget splits that
    keeps the largest ``min``; ``best[v]`` is the better choice per ``k``.
    Plain Python ints, no chains and no sorting: O(n^2) cell pairs.
    """
    cap = len(tree.non_leaves)
    if budget is not None:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        cap = min(budget, cap)
    best: dict[int, list[int]] = {}
    for v in reversed(tree.bfs_order):
        kids = tree.children[v]
        if not kids:
            best[v] = [0]
            continue
        rows = []  # rows[eps][k - eps]
        for eps, length in ((0, tree.w), (1, tree.u)):
            limit = cap + 1 - eps
            merged = None
            for c in kids:
                row = [x + length[c] for x in best[c][:limit]]
                if merged is None:
                    merged = row
                    continue
                out = [-1] * min(len(merged) + len(row) - 1, limit)
                for i, a in enumerate(merged):
                    for j, b in enumerate(row[:len(out) - i], start=i):
                        cell = a if a < b else b
                        if cell > out[j]:
                            out[j] = cell
                merged = out
            rows.append(merged)
        f0, f1 = rows
        best[v] = [max(f0[k] if k < len(f0) else -1,
                       f1[k - 1] if 0 < k <= len(f1) else -1)
                   for k in range(max(len(f0), len(f1) + 1))]
        for c in kids:
            del best[c]
    return list(accumulate(best[tree.root], max))
