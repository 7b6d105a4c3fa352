"""Budgeted dynamic program over the chain decomposition.

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
sparsity handling is needed. Every row is non-decreasing (an upgrade never
shortens an edge), so the parallel merge needs no loop over splits: it is
a capped sorted merge of the two rows. Each table's length follows from
its operands: a merge of rows with ``a`` and ``b`` cells has
``min(a + b - 1, limit)`` cells, so a region's row ends at its
upgradable (non-leaf) node count or at the overall budget, whichever is
smaller. That keeps the whole solve within O(n * K^2); with K unclamped
(the minimum-budget search) the region sizes alone bound it by O(n^2),
the tree-knapsack argument.

Where a merge has only one split, none runs and no backpointer is kept:

* a chain ending in a leaf has nothing below it, so its branch row is its
  g-rows and the reconstruction gives the chain the whole branch budget;
* a *leaf edge*, a one-edge chain down to a leaf, has the rows ``[w]`` and
  ``[u]`` and takes ``k1 = eps``: as the first branch these rows are the
  prefix, and after it the parallel merge reduces to capping the prefix,
  ``f0 = min(f0, w)`` and ``f1 = min(f1, u)``. The caps are applied in
  critical-descendant order, so every later merge sees the rows and ties it
  would see had the merge run, and no chain table is built for the edge;
* a one-edge chain into a junction ``h`` also takes ``k_chain = eps``: its
  branch rows are the row below ``h`` shifted by ``w`` and by ``u``, with
  no chain table and no serial merge;
* a convolution whose right operand has one cell is a single vectorised
  operation.

Reconstruction reads only the split of each merge, so a value row is
dropped as soon as the merge above it has read it: what a solve keeps is
one int32 backpointer pair per merge that ran, one int8 eps row per
junction and the root's budget-to-value row.

Ties in every argmax prefer eps=0, then the smallest branch-side budget,
which makes reported upgrade sets deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainTable, chain_g_table
from .decompose import Chain, Decomposition, decompose
from .errors import InstanceError, _decimal
from .tree import (AppliedWeights, RootedTree, Solution, _leaf_distances,
                   evaluate_min_distance)

_INT64_MAX = np.iinfo(np.int64).max
_NEG = np.int64(np.iinfo(np.int64).min // 4)


@dataclass
class TableSlice:
    """One region's table: f0[k] = f(eps=0, k), f1[i] = f(eps=1, i+1).

    ``bp0``/``bp1`` record, per cell, the left-operand index of the maximizing
    split (chain budget for serial slices, q-th-branch budget for parallel
    slices); the left operand shares the cell's eps offset. They are None
    where no merge ran, because the split is forced.
    """

    f0: np.ndarray
    f1: np.ndarray
    bp0: np.ndarray | None = None
    bp1: np.ndarray | None = None


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
    ``1..q-1``, present for every q > 1 except a leaf edge, whose merge is
    a cap. ``subtree_eps[v]`` records, per budget, whether the best table
    of the subtree at ``v`` upgrades ``v``; ``root_best[k]`` is the
    optimum with ``k`` upgrades.
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
    # A one-cell right operand, the prefix after a first-branch leaf edge,
    # leaves one split per cell: no loop, no ties.
    if b.size == 1:
        return op(a[:out_len], b[0]), np.arange(out_len, dtype=np.int32)
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


def _merge(op, a0: np.ndarray, a1: np.ndarray, b0: np.ndarray,
           b1: np.ndarray, budget: int) -> TableSlice:
    """Convolve the eps=0 rows and the eps=1 rows of two operands.

    eps=0 cells run up to k = ``budget``, eps=1 cells (stored from k = 1)
    likewise; within that, the operands' lengths set the region's size.
    """
    f0, bp0 = _convolve(op, a0, b0, budget + 1)
    f1, bp1 = _convolve(op, a1, b1, budget)
    return TableSlice(f0, f1, bp0, bp1)


def combine_serial(ct: ChainTable, below: np.ndarray,
                   budget: int) -> TableSlice:
    """Merge a chain with the full-subtree table under its bottom junction.

    ``below`` is the collapsed best-by-budget array of the subtree under the
    chain's bottom. A chain ending in a leaf runs no merge: its g-rows are
    the branch row.
    """
    return _merge(np.add, ct.g0, ct.g1, below, below, budget)


def combine_parallel(branch: TableSlice, prefix: TableSlice,
                     budget: int) -> TableSlice:
    """Min-combine a branch with the union of the branches before it.

    Matching eps on both sides is mandatory; with eps=1 the shared junction
    upgrade is counted once (k = k1 + k2 - 1).
    """
    return _merge(np.minimum, branch.f0, branch.f1, prefix.f0, prefix.f1,
                  budget)


def _collapse(sl: TableSlice) -> tuple[np.ndarray, np.ndarray]:
    """Best over eps per budget; ties keep eps=0."""
    kmax = max(len(sl.f0) - 1, len(sl.f1))
    best = np.full(kmax + 1, _NEG, dtype=np.int64)
    eps = np.zeros(kmax + 1, dtype=np.int8)
    best[: len(sl.f0)] = sl.f0
    if sl.f1.size:
        view = best[1: len(sl.f1) + 1]
        mask = sl.f1 > view
        view[mask] = sl.f1[mask]
        eps[1: len(sl.f1) + 1][mask] = 1
    return best, eps


def _is_leaf_edge(tree: RootedTree, chain: Chain) -> bool:
    """A one-edge chain down to a leaf, whose split is always forced."""
    return chain.beta == 1 and tree.is_leaf(chain.bottom)


def build_tables(tree: RootedTree, budget: int) -> DpTables:
    """Run the full bottom-up pass; budgets above the upgradable count clamp.

    Tables hold int64 cells, each bounded by the longest all-upgraded
    root-leaf path; trees where that path exceeds the int64 range raise
    :class:`InstanceError`. Each value row lives only until the merge above
    it has read it; backpointers are int32 and ``subtree_eps`` rows int8.
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
        for q, h in enumerate(dec.cd[v], start=1):
            chain = dec.chains[h]
            if _is_leaf_edge(tree, chain):
                # Its row is [w], and [u] when the budget allows. Its only
                # split is k1 = eps, so after the first branch the parallel
                # merge just caps the prefix.
                if q > 1:
                    prefix = TableSlice(np.minimum(prefix.f0, tree.w[h]),
                                        np.minimum(prefix.f1, tree.u[h]))
                    continue
                sl = TableSlice(np.array([tree.w[h]], dtype=np.int64),
                                np.array([tree.u[h]], dtype=np.int64)[:k_cap])
            elif chain.beta == 1:
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
            if q == 1:
                prefix = sl
            else:
                prefix = combine_parallel(sl, prefix, k_cap)
                parallel[(v, q)] = (prefix.bp0, prefix.bp1)
        subtree_best[v], subtree_eps[v] = _collapse(prefix)
    root_best = subtree_best.pop(tree.root)
    if len(root_best) != k_cap + 1:
        raise RuntimeError(
            f"internal error: root row has {len(root_best)} cells, "
            f"expected {k_cap + 1}")

    return DpTables(
        tree=tree,
        decomposition=dec,
        budget=k_cap,
        serial=serial,
        parallel=parallel,
        subtree_eps=subtree_eps,
        root_best=root_best,
    )


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
            if q > 1:
                k1 = _split(tables.parallel[(v, q)], eps, k)
                k = k - k1 + eps  # remainder flows to branches 1..q-1
            else:
                k1 = k
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
