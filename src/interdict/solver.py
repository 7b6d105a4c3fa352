"""Budgeted dynamic program over the chain decomposition: the chain g-rows,
both merges, the backpointer walk, and :func:`solve_max` and
:func:`solve_cost`, which read the root's budget-to-value row two ways.

For a junction ``v`` with critical descendants ``h_1 < h_2 < ... < h_p``,
the q-th *branch* is the chain down to ``h_q`` plus the whole subtree below
``h_q``. Tables are indexed by ``(eps, k)`` where ``k`` is the exact number
of upgraded nodes inside the region and ``eps`` flags whether ``v`` itself
is one of them (the flag must agree across sibling branches, since ``v``'s
single upgrade raises the first edge of every chain at once).

Two merge steps build the tables bottom-up:

* serial: best branch value = max over ``k1 + k2 = k`` of
  chain ``g(eps, k1)`` plus the best full-subtree value below the chain
  with ``k2`` upgrades (0 if the chain bottoms out in a leaf);
* parallel: the first ``q`` branches combine by ``min`` (a path through
  any branch may be the shortest), maximizing over ``k1 + k2 - eps = k``
  so the shared upgrade of ``v`` is paid for once.

Both steps run one convolution routine over dense budget arrays, with
``+`` as the inner operation for the serial (max,+) merge and ``min`` for
the parallel (max,min) merge; all feasible cells are contiguous, so no
sparsity handling is needed. A chain's eps=1 g-row is its eps=0 row raised
by the head gain, so the serial merge convolves the eps=0 rows only and
raises the result by that gain: the eps=1 cells have the same maximizers.
Every row is non-decreasing (an upgrade never shortens an edge), so the
parallel merge needs no loop over splits: it is a capped sorted merge of
the two rows. Each table's length follows from its operands: a merge of
rows with ``a`` and ``b`` cells has ``min(a + b - 1, limit)`` cells, so a
region's row ends at its upgradable (non-leaf) node count or at the
overall budget, whichever is smaller. That keeps the whole solve within
O(n * K^2), and within O(n^2) with K unclamped, as :func:`solve_cost`
runs it.

Where a merge has only one split, none runs and no backpointer is kept:

* a chain ending in a leaf has nothing below it, so its branch row is its
  g-rows and the reconstruction gives the chain the whole branch budget;
* a *leaf edge*, a one-edge chain down to a leaf, has the rows ``[w]`` and
  ``[u]`` and takes ``k1 = eps``, so its parallel merge reduces to a cap,
  ``f0 = min(f0, w)`` and ``f1 = min(f1, u)``. A run of consecutive leaf
  edges caps once, at its smallest ``w`` and ``u``: a leading run caps the
  first branch that merges, a later run caps the prefix before the next
  merge, and a run at the end caps the junction's row. ``min`` is
  associative, so every later merge sees the rows and ties it would see
  had each merge run, and no chain table is built for the edge. The first
  branch that merges thus runs no parallel merge and takes whatever budget
  the branches after it leave;
* a one-edge chain into a junction ``h`` also takes ``k_chain = eps``: its
  branch rows are the row below ``h`` shifted by ``w`` and by ``u``, with
  no chain table and no serial merge.

Reconstruction reads only the split of each merge, so a value row is
dropped as soon as the merge above it has read it: what a solve keeps is
one int32 backpointer pair per merge that ran (one array for a serial
merge, whose eps=1 backpointers are a view of its eps=0 ones), one int8
eps row per junction and the root's budget-to-value row.

Ties in every argmax prefer eps=0, then the smallest branch-side budget,
which makes reported upgrade sets deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import Chain, Decomposition, decompose
from .errors import InstanceError, TargetUnreachable, _decimal
from .tree import (AppliedWeights, RootedTree, Solution, _leaf_distances,
                   all_upgraded_min_distance, evaluate_min_distance)

_INT64_MAX = np.iinfo(np.int64).max
_NEG = np.int64(np.iinfo(np.int64).min // 4)


@dataclass
class TableSlice:
    """One region's table: f0[k] = f(eps=0, k), f1[i] = f(eps=1, i+1).

    ``bp0``/``bp1`` record, per cell, the left-operand index of the maximizing
    split (chain budget for serial slices, q-th-branch budget for parallel
    slices); the left operand shares the cell's eps offset. A serial
    slice's ``bp1`` is a view of its ``bp0``. They are None where no merge
    ran, because the split is forced: a chain ending in a leaf, a one-edge
    chain into a junction, a leaf-edge cap, and the first branch of a
    junction that merges, which runs no parallel merge.
    """

    f0: np.ndarray
    f1: np.ndarray
    bp0: np.ndarray | None = None
    bp1: np.ndarray | None = None


@dataclass(frozen=True)
class ChainTable:
    """Dense g-values for one chain under a budget: ``g0[k]`` holds
    g(0, k); ``g1[i]`` holds g(1, i+1). The upgrade set of a cell is
    :meth:`Chain.upgrade_set`."""

    g0: np.ndarray
    g1: np.ndarray


def chain_g_table(chain: Chain, budget: int) -> ChainTable:
    """Both g-rows of a chain with ``beta`` edges, in O(beta).

    ``g(eps, k)`` is the largest total chain length achievable by upgrading
    exactly ``k`` of the chain's upgradable nodes, where ``eps`` records
    whether its top junction is one of them. Upgrading the top raises the
    first edge; upgrading an interior node raises the edge below it. With
    the tail sorted by gain, the best interior picks are always a prefix,
    so the rows are two running prefix sums::

        g(0, k) = w_sum + (k largest tail gains)        0 <= k <= min(beta-1, K)
        g(1, k) = w_sum + head gain + (k-1 largest tail gains)
                                                        1 <= k <= min(beta, K)

    Only beta-1 tail edges exist, hence the tighter eps=0 bound. Every cell
    is at most the all-upgraded chain length; a chain where that exceeds
    the int64 range raises :class:`InstanceError`.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    longest = chain.w_sum + chain.head_delta + sum(chain.tail_deltas)
    if longest > _INT64_MAX:
        raise InstanceError(
            f"chain to {chain.bottom}: all-upgraded length "
            f"{_decimal(longest)} is above the int64 table limit {_INT64_MAX}")
    tail_prefix = np.concatenate(
        ([0], np.cumsum(np.asarray(chain.tail_deltas, dtype=np.int64))))
    g0 = chain.w_sum + tail_prefix[: min(chain.beta - 1, budget) + 1]
    g1 = chain.w_sum + chain.head_delta + tail_prefix[: min(chain.beta, budget)]
    return ChainTable(g0=g0, g1=g1)


Backpointers = tuple[np.ndarray, np.ndarray]  # a merge's (bp0, bp1)


def _split(bps: Backpointers, eps: int, k: int) -> int:
    """Left-operand budget of the maximizing split for cell ``(eps, k)``."""
    return int(bps[eps][k - eps]) + eps


@dataclass
class DpTables:
    """What the backpointer walk of one solve reads; values are dropped
    once the merge above has consumed them.

    ``serial[(v, q)]`` holds the ``(bp0, bp1)`` backpointers of the serial
    merge of the q-th branch at junction ``v``, present where the chain
    has two or more edges and ends in a junction. ``parallel[(v, q)]``
    holds those of the parallel merge of branch q into branches
    ``1..q-1``, present for every branch but the leaf edges, whose merge
    is a cap, and the first branch that is not a leaf edge, which the
    leaf edges before it only cap; a walk that finds no entry there gives
    that branch all the budget left. ``subtree_eps[v]`` records, per
    budget, whether the best table of the subtree at ``v`` upgrades
    ``v``; ``root_best[k]`` is the optimum with ``k`` upgrades.
    """

    tree: RootedTree
    decomposition: Decomposition
    budget: int
    serial: dict[tuple[int, int], Backpointers]
    parallel: dict[tuple[int, int], Backpointers]
    subtree_eps: dict[int, np.ndarray]
    root_best: np.ndarray


def _convolve(op, a: np.ndarray, b: np.ndarray, limit: int):
    """out[m] = max_{i+j=m} op(a[i], b[j]), arg = smallest maximizing i.

    ``op`` is ``np.add`` for the serial (max,+) merge and ``np.minimum``
    for the parallel (max,min) merge. The result has
    ``min(a.size + b.size - 1, limit)`` cells (none if an operand is
    empty), each covered by at least one split.

    For ``np.minimum`` both rows must be non-decreasing, which every DP row
    is: ``build_tree`` keeps ``0 <= w <= u``, so a best exact-k value can
    always take one more upgrade. Then the merge is a capped sorted merge:
    out[m] is the (m+1)-th smallest cell of both rows, capped at the smaller
    last cell, and its smallest split is the first i with ``a[i] >= out[m]``
    that leaves ``j = m - i`` inside ``b``.
    """
    if not (a.size and b.size):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)
    out_len = min(a.size + b.size - 1, limit)
    if op is np.minimum:
        out = np.minimum(np.sort(np.concatenate((a, b)))[:out_len],
                         min(a[-1], b[-1]))
        arg = np.maximum(np.searchsorted(a, out, "left"),
                         np.arange(out_len) - (b.size - 1))
        return out, arg.astype(np.int32)
    out = np.full(out_len, _NEG, dtype=np.int64)
    arg = np.zeros(out_len, dtype=np.int32)
    # Iterate the shorter operand. Over the right one, highest j first, so
    # strict improvement still leaves the smallest i on ties.
    a_short = a.size <= b.size
    short, full = (a, b) if a_short else (b, a)
    steps = range(min(short.size, out_len))
    for s in steps if a_short else reversed(steps):
        m = min(full.size, out_len - s)
        seg = op(short[s], full[:m])
        view = out[s:s + m]
        mask = seg > view
        view[mask] = seg[mask]
        arg[s:s + m][mask] = s if a_short else np.flatnonzero(mask)
    return out, arg


def combine_serial(ct: ChainTable, below: np.ndarray,
                   budget: int) -> TableSlice:
    """Merge a chain's table at ``budget`` with ``below``, the collapsed
    best-by-budget row of the subtree under the chain's bottom junction.

    Only the eps=0 rows are convolved: ``g1`` is ``g0`` raised by the head
    gain, so the eps=1 cells are the eps=0 ones raised by that gain, with
    the same maximizers, and ``bp1`` is a view of ``bp0``.
    """
    f0, bp0 = _convolve(np.add, ct.g0, below, budget + 1)
    head_gain = ct.g1[0] - ct.g0[0] if budget else 0
    return TableSlice(f0, f0[:budget] + head_gain, bp0, bp0[:budget])


def combine_parallel(branch: TableSlice, prefix: TableSlice,
                     budget: int) -> TableSlice:
    """Min-combine a branch with the union of the branches before it.

    Matching eps on both sides is mandatory; with eps=1 the shared junction
    upgrade is counted once (k = k1 + k2 - 1). eps=0 cells run up to
    k = ``budget``, eps=1 cells (stored from k = 1) likewise. It runs for
    every branch after the first one that is not a leaf edge.
    """
    f0, bp0 = _convolve(np.minimum, branch.f0, prefix.f0, budget + 1)
    f1, bp1 = _convolve(np.minimum, branch.f1, prefix.f1, budget)
    return TableSlice(f0, f1, bp0, bp1)


def _collapse(sl: TableSlice) -> tuple[np.ndarray, np.ndarray]:
    """Best over eps per budget; ties keep eps=0."""
    f0, f1 = sl.f0, sl.f1
    # f1[i] is the cell k = i + 1: past f0's last cell only eps=1 exists,
    # and over the overlap k = 1..m the strict comparison picks eps.
    m = min(len(f0) - 1, len(f1))
    best = np.concatenate((f0, f1[len(f0) - 1:]))
    eps = np.zeros(best.size, dtype=np.int8)
    eps[len(f0):] = 1
    overlap = best[1:m + 1]
    eps[1:m + 1] = f1[:m] > overlap
    np.maximum(overlap, f1[:m], out=overlap)
    return best, eps


def _is_leaf_edge(tree: RootedTree, chain: Chain) -> bool:
    """A one-edge chain down to a leaf, whose split is always forced."""
    return chain.beta == 1 and tree.is_leaf(chain.bottom)


def _cap(sl: TableSlice | None, cap: tuple[int, int] | None,
         budget: int) -> TableSlice | None:
    """Apply a run of leaf edges with smallest lengths ``cap = (w, u)``:
    ``min(f0, w)`` and ``min(f1, u)``, or the rows ``[w]`` and ``[u]``
    (the latter at a positive budget) when there is no ``sl``, at a
    junction whose branches are all leaf edges. With no run, ``cap`` is
    None and ``sl`` is returned as it is."""
    if cap is None:
        return sl
    w, u = cap
    if sl is None:
        return TableSlice(np.array([w], dtype=np.int64),
                          np.array([u], dtype=np.int64)[:budget])
    return TableSlice(np.minimum(sl.f0, w), np.minimum(sl.f1, u))


def build_tables(tree: RootedTree, budget: int) -> DpTables:
    """Run the full bottom-up pass; budgets above the upgradable count clamp.

    Tables hold int64 cells, each bounded by the longest all-upgraded
    root-leaf path; trees where that path exceeds the int64 range raise
    :class:`InstanceError`. Each value row lives only until the merge above
    it has read it; backpointers are int32 and ``subtree_eps`` rows int8.
    A chain ending in a leaf runs no serial merge: its g-rows are the
    branch row.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    longest = max(_leaf_distances(tree, tree.non_leaves))
    if longest > _INT64_MAX:
        raise InstanceError(
            f"longest all-upgraded root-leaf path {_decimal(longest)} is "
            f"above the int64 table limit {_INT64_MAX}")
    dec = decompose(tree)
    k_cap = min(budget, len(tree.non_leaves))

    serial: dict[tuple[int, int], Backpointers] = {}
    parallel: dict[tuple[int, int], Backpointers] = {}
    subtree_best: dict[int, np.ndarray] = {}  # junctions not yet merged
    subtree_eps: dict[int, np.ndarray] = {}

    for v in dec.order:
        prefix = None
        cap = None  # smallest (w, u) of the leaf edges not yet applied
        for q, h in enumerate(dec.cd[v], start=1):
            chain = dec.chains[h]
            if _is_leaf_edge(tree, chain):
                # Its rows are [w] and [u] and its only split is k1 = eps,
                # so its parallel merge is a cap. A run of leaf edges caps
                # once: the first branch that merges, else the prefix before
                # the next merge reads it, else the junction's row.
                w, u = tree.w[h], tree.u[h]
                cap = (w, u) if cap is None else (min(cap[0], w),
                                                  min(cap[1], u))
                continue
            if chain.beta == 1:
                # One edge into a junction: its rows are [w] and [u], so its
                # only split is k_chain = eps and the serial merge is a shift.
                below = subtree_best.pop(h)
                sl = TableSlice(below[:k_cap + 1] + tree.w[h],
                                below[:k_cap] + tree.u[h])
            else:
                ct = chain_g_table(chain, k_cap)
                if tree.is_leaf(h):
                    sl = TableSlice(ct.g0, ct.g1)  # nothing below: all on chain
                else:
                    sl = combine_serial(ct, subtree_best.pop(h), k_cap)
                    serial[(v, q)] = (sl.bp0, sl.bp1)
            if prefix is None:
                prefix = _cap(sl, cap, k_cap)  # leaf edges before it cap it
            else:
                prefix = combine_parallel(sl, _cap(prefix, cap, k_cap), k_cap)
                parallel[(v, q)] = (prefix.bp0, prefix.bp1)
            cap = None
        subtree_best[v], subtree_eps[v] = _collapse(_cap(prefix, cap, k_cap))
    root_best = subtree_best.pop(tree.root)
    if len(root_best) != k_cap + 1:
        raise RuntimeError(
            f"internal error: root row has {len(root_best)} cells, "
            f"expected {k_cap + 1}")

    return DpTables(tree, dec, k_cap, serial, parallel, subtree_eps,
                    root_best)


def _extract_upgrades(tables: DpTables, k_root: int) -> set[int]:
    """Walk backpointers from the root cell for budget ``k_root`` and
    materialize the upgrade set."""
    dec = tables.decomposition
    tree = tables.tree
    upgraded: set[int] = set()
    stack = [(tree.root, int(tables.subtree_eps[tree.root][k_root]), k_root)]
    while stack:
        v, eps, k = stack.pop()
        if eps:
            upgraded.add(v)
        cd = dec.cd[v]
        for q in range(len(cd), 0, -1):
            h = cd[q - 1]
            chain = dec.chains[h]
            if _is_leaf_edge(tree, chain):
                continue  # it takes k1 = eps: v alone, if anything
            bps = tables.parallel.get((v, q))
            if bps is None:
                k1 = k  # the first branch that merged takes what is left
            else:
                k1 = _split(bps, eps, k)
                k = k - k1 + eps  # remainder flows to branches 1..q-1
            if tree.is_leaf(h):
                k_chain = k1
            elif chain.beta == 1:
                k_chain = eps  # one edge into a junction: v alone, if anything
            else:
                k_chain = _split(tables.serial[(v, q)], eps, k1)
            upgraded |= chain.upgrade_set(eps, k_chain)
            k_below = k1 - k_chain
            if k_below > 0:
                stack.append(
                    (h, int(tables.subtree_eps[h][k_below]), k_below))
    return upgraded


def _read_solution(tables: DpTables, k: int) -> Solution:
    """Optimum with at most ``k <= tables.budget`` upgrades and its set.

    The table value is re-checked against the direct evaluator before
    returning, so a solution can never silently disagree with its set.
    """
    tree = tables.tree
    value = int(tables.root_best[k])
    upgraded = frozenset(_extract_upgrades(tables, k))
    realized = evaluate_min_distance(tree, upgraded)
    if realized != value:
        raise RuntimeError(
            f"internal error: table value {value} but set realizes {realized}")
    return Solution(value=value, upgraded=upgraded,
                    applied_weights=AppliedWeights(tree, upgraded))


def solve_max(tree: RootedTree, budget: int) -> Solution:
    """Maximize the shortest root-leaf distance with at most ``budget``
    node upgrades; exact, with the realized upgrade set.

    The value is re-checked against the direct evaluator before returning.
    """
    tables = build_tables(tree, budget)
    return _read_solution(tables, tables.budget)


@dataclass(frozen=True)
class BudgetQuery:
    """The minimum-budget query that was answered: its target."""

    target: int


@dataclass(frozen=True)
class CostResult:
    """Minimal budget, a witnessing solution of value >= target, and the query."""

    kstar: int
    solution: Solution
    query: BudgetQuery


def solve_cost(tree: RootedTree, target: int) -> CostResult:
    """Smallest number of node upgrades whose optimum reaches ``target``.

    One table pass at the full budget (the upgradable count) holds the
    budgeted optimum for every budget at once: ``root_best[k]`` is the best
    value with ``k`` upgrades. That profile is non-decreasing, so the
    smallest sufficient budget k* is its first index reaching the target,
    and the witness is the backpointer walk started at k*. Cells at
    ``k <= k*`` read only lower indices and break ties towards the smallest
    index, so they equal those of a pass capped at k*: the witness is
    ``solve_max(tree, k*)``.

    Every table is capped by its subtree's upgradable count, so the pass is
    O(n^2) by the tree-knapsack argument (Johnson & Niemi, Math. Oper. Res.
    1983), below the paper's O(n^3 log n) bisection.

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
    return CostResult(kstar, _read_solution(tables, kstar),
                      BudgetQuery(target))
