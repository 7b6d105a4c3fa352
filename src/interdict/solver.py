"""Budgeted dynamic program over the chain decomposition: the decomposition,
the chain g-rows, both merges, the walk that recovers the upgrade set, and
:func:`solve_max` and :func:`solve_cost`, which read the root's
budget-to-value row two ways.

A *junction* is the root or any non-root node of undirected degree > 2.
Walking up from a branching node or a leaf, the first junction reached is
its *critical ancestor*; the path between them is a *chain* whose interior
nodes all have degree 2. Chains partition the edge set, and the tables are
merged junction by junction. A junction's table depends only on the
subtree below it, so any order that puts every junction after the
junctions below it gives the same tables and upgrade sets.

Within a chain, upgrades of interior (degree-2) nodes are exchangeable:
an optimal solution may always spend its interior upgrades on the largest
upgrade gains first. Each chain therefore stores its tail (positions
2..beta) sorted by gain, with the original owner of each slot retained so
reported upgrade sets refer to the physical tree. Position 1 is never
permuted: its edge hangs directly off the junction and can only be
upgraded by upgrading the junction itself, which all sibling chains share.

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
* parallel: a junction's branches combine by ``min`` (a path through any
  branch may be the shortest), maximizing over budget splits that sum to
  ``k``, with the shared upgrade of ``v`` paid for once.

The serial merge is a (max,+) convolution over dense budget arrays; all
feasible cells are contiguous, so no sparsity handling is needed. A
chain's eps=1 g-row is its eps=0 row raised by the head gain, so the serial
merge convolves the eps=0 rows only and raises the result by that gain:
the eps=1 cells have the same maximizers. Every row is non-decreasing (an
upgrade never shortens an edge), so the parallel merge of all of a
junction's branches needs no loop over splits: cell ``m`` is the
(m+1)-th smallest cell of the union of their rows, capped at the smallest
last cell, one sort per eps. Each table's length follows from its
operands: a merge of rows with ``a_1, ..., a_p`` cells has
``min(sum(a_i - 1) + 1, limit)`` cells, so a region's row ends at its
upgradable (non-leaf) node count or at the overall budget, whichever is
smaller. That keeps the whole solve within O(n * K^2), and within O(n^2)
with K unclamped, as :func:`solve_cost` runs it.

Where a merge has only one split, none runs and nothing is kept:

* a chain ending in a leaf has nothing below it, so its branch row is its
  g-rows;
* a *leaf edge*, a one-edge chain down to a leaf, has the rows ``[w]`` and
  ``[u]`` and takes ``k1 = eps``, so its part in the parallel merge is a
  cap, ``min(f0, w)`` and ``min(f1, u)``. ``min`` is associative, so the
  leaf edges cap the junction's row once, the merge of the other
  branches' uncapped rows, at their smallest ``w`` and ``u``; each merging
  branch records the leaf-edge minima before it, from which the walk
  recovers the ties of a merge of every edge. No chain table is built for
  the edge;
* a junction with one branch that is not a leaf edge passes that
  branch's rows up, capped by its leaf edges;
* a one-edge chain into a junction ``h`` has the rows ``[w]`` and ``[u]``
  too: its branch rows are the row below ``h`` shifted by ``w`` and by
  ``u``, with no chain table and no serial merge.

The walk gives a chain one share of its branch's budget ``eps + i``:
``k_chain = eps + bp[i]`` where the chain ran a serial merge with
backpointer row ``bp``, and otherwise all the chain can hold,
``eps + min(i, beta - 1)``. That is the whole branch budget for a chain
ending in a leaf and ``eps`` for a one-edge chain into a junction.

The walk reads only the split of each merge, so a value row is dropped as
soon as the merge above it has read it. What a solve keeps is the root's
budget-to-value row and one record per junction ``v``: an int8 row that
says, per budget, whether the best table of ``v``'s subtree upgrades
``v``; the chains of its branches that are not leaf edges, in ``cd``
order; per chain, the int32 backpointer row of its serial merge, where
one ran; and, where two or more branches merge, their leaf-edge minima
and uncapped eps=0 rows. Leaf edges and the decomposition's ``cd`` and
``order`` are not kept. A branch's eps=1 row is its eps=0 row raised by
the chain's head gain, so the walk derives it rather than keeping it.
The walk goes from a junction's record to the records at its chains'
bottoms, never into the tree, and from the branch rows it recomputes the
splits of merging the branches and the leaf edges one at a time, in
``cd`` order. Going from the last branch down with remainder ``m``,
branch q takes the smallest index of its row that reaches the merged
value of everything up to it at ``m`` and leaves the rest within
branches 1..q-1's capacity, each leaf edge takes 0, and branch 1 takes
what is left. That merged value is at most the leaf-edge minimum before
branch q, so the search in the uncapped row finds the index the capped
row would give.

Ties in every argmax prefer eps=0, then the smallest budget for the
chain, or for the later branch, which makes reported upgrade sets
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstanceError, TargetUnreachable, _decimal
from .tree import (AppliedWeights, RootedTree, Solution, _leaf_distances,
                   all_upgraded_min_distance, evaluate_min_distance)

_INT64_MAX = np.iinfo(np.int64).max
_NEG = np.int64(np.iinfo(np.int64).min // 4)


class Chain(NamedTuple):
    """A junction-to-junction (or junction-to-leaf) path with sorted tail.

    ``tail_deltas``/``tail_owners`` align with positions 2..beta; the edge
    in a tail slot is the one child edge of its owner. ``upgrade_set``
    materializes which physical nodes realize ``k`` upgrades on the chain
    with the top's flag ``eps``. A chain is an immutable tuple of its
    fields, in this order.
    """

    top: int
    bottom: int
    beta: int
    w_sum: int
    head_delta: int
    tail_deltas: tuple[int, ...]
    tail_owners: tuple[int, ...]

    def upgrade_set(self, eps: int, k: int) -> frozenset[int]:
        """Nodes upgraded for a feasible chain cell: top iff eps, then the
        owners of the k-eps largest tail gains."""
        tail_count = k - eps
        if not 0 <= tail_count <= len(self.tail_owners) or eps not in (0, 1):
            raise ValueError(f"infeasible chain cell eps={eps}, k={k}")
        nodes = set(self.tail_owners[:tail_count])
        if eps:
            nodes.add(self.top)
        return frozenset(nodes)


@dataclass(frozen=True)
class Decomposition:
    """All structural data the solver consumes, derived once per tree."""

    cd: dict[int, tuple[int, ...]]
    chains: dict[int, Chain]
    order: tuple[int, ...]


def decompose(tree: RootedTree) -> Decomposition:
    """Junctions, chains and the junction processing order.

    Critical descendants are listed in ascending id. ``order`` lists the
    junctions in reversed BFS order, so every junction comes after the
    junctions below it. One pass over the BFS order finds the chain
    bottoms, and each chain is walked up once; a chain whose bottom hangs
    directly off a junction takes a fast path: one edge, no tail, no walk
    and no sort. Raises ``RuntimeError`` if the chains do not partition the
    edges and the upgradable nodes.
    """
    children, parent, w, u = tree.children, tree.parent, tree.w, tree.u
    # A non-root node is a chain bottom unless it has exactly one child
    # (degree 2), and a junction if it has children at all.
    bottoms = sorted(c for c in tree.bfs_order[1:] if len(children[c]) != 1)
    cd_lists: dict[int, list[int]] = {tree.root: []}
    cd_lists.update((v, []) for v in bottoms if children[v])
    chains: dict[int, Chain] = {}
    for bottom in bottoms:
        top = parent[bottom]
        if top in cd_lists:
            cd_lists[top].append(bottom)
            base = w[bottom]
            chains[bottom] = Chain(top, bottom, 1, base, u[bottom] - base,
                                   (), ())
            continue
        path = [bottom]  # child-keyed edges, bottom to top
        while top not in cd_lists:
            path.append(top)
            top = parent[top]
        cd_lists[top].append(bottom)
        # Tail slots sort by gain descending (w - u ascending), ties by
        # ascending owner id; the owner of a tail edge is its physical
        # parent, always degree 2.
        tail = sorted((w[e] - u[e], parent[e]) for e in path[:-1])
        head = path[-1]
        chains[bottom] = Chain(
            top, bottom, len(path), sum(w[e] for e in path),
            u[head] - w[head], tuple(-d for d, _ in tail),
            tuple(o for _, o in tail))
    cd = {v: tuple(members) for v, members in cd_lists.items()}

    # Each chain owns its edges and its interior (upgradable) nodes; the
    # junctions are the remaining upgradable nodes.
    betas = [chains[h].beta for members in cd.values() for h in members]
    edges, interiors = sum(betas), sum(betas) - len(betas)
    if (edges != tree.node_count - 1
            or len(cd) + interiors != len(tree.non_leaves)):
        raise RuntimeError(
            f"internal error: {len(betas)} chains of {edges} edges under "
            f"{len(cd)} junctions do not partition the tree")
    order = tuple(v for v in reversed(tree.bfs_order) if v in cd)
    return Decomposition(cd=cd, chains=chains, order=order)


@dataclass
class TableSlice:
    """One region's table: f0[k] = f(eps=0, k), f1[i] = f(eps=1, i+1).

    ``bp`` is set on a serial merge's slice only: per eps=0 cell, the chain
    budget of the maximizing split. The eps=1 cell ``k`` has the split of
    the eps=0 cell ``k - 1`` plus the head, since its row is the eps=0 row
    raised by the head gain.
    """

    f0: np.ndarray
    f1: np.ndarray
    bp: np.ndarray | None = None


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

    Only beta-1 tail edges exist, hence the tighter eps=0 bound.

    Precondition, checked once by :func:`build_tables` and not here:
    ``budget >= 0`` and the chain's all-upgraded length fits in int64.
    Every cell is a prefix of that length, and the chain lies on a
    root-leaf path, so the gate on the longest all-upgraded root-leaf path
    covers every chain.
    """
    tail_prefix = np.concatenate(
        ([0], np.cumsum(np.asarray(chain.tail_deltas, dtype=np.int64))))
    g0 = chain.w_sum + tail_prefix[: min(chain.beta - 1, budget) + 1]
    g1 = chain.w_sum + chain.head_delta + tail_prefix[: min(chain.beta, budget)]
    return ChainTable(g0=g0, g1=g1)


@dataclass
class DpTables:
    """What the walk of one solve reads; values are dropped once the merge
    above has consumed them, except the branch rows the walk re-reads.

    ``junctions[v]`` is junction ``v``'s record
    ``(eps, chains, bps, caps, rows)``. ``eps[k]`` says whether the best
    table of the subtree at ``v`` with ``k`` upgrades upgrades ``v``.
    ``chains`` are the chains of ``v``'s branches that are not leaf edges,
    in ``cd`` order; ``bps[q]`` holds the backpointers of the serial merge
    of ``chains[q]``, or is ``None`` where none ran: a one-edge chain or a
    chain ending in a leaf. ``caps[q]`` is the smallest ``w`` and the
    smallest ``u`` over the leaf edges before ``chains[q]``, or
    ``_INT64_MAX`` where there are none; ``rows[q]`` is that branch's
    uncapped eps=0 row. ``caps`` and ``rows`` are kept where two or more
    branches merge at a positive budget and are ``()`` elsewhere, where
    the split is forced. ``root_best[k]`` is the optimum with ``k``
    upgrades, for every ``k`` up to the clamped budget.
    """

    tree: RootedTree
    junctions: dict[int, tuple]
    root_best: np.ndarray


def _convolve(a: np.ndarray, b: np.ndarray, limit: int):
    """out[m] = max_{i+j=m} a[i] + b[j], arg = smallest maximizing i.

    The result has ``min(a.size + b.size - 1, limit)`` cells, each covered
    by at least one split.
    """
    out_len = min(a.size + b.size - 1, limit)
    out = np.full(out_len, _NEG, dtype=np.int64)
    arg = np.zeros(out_len, dtype=np.int32)
    # Iterate the shorter operand. Over the right one, highest j first, so
    # strict improvement still leaves the smallest i on ties.
    a_short = a.size <= b.size
    short, full = (a, b) if a_short else (b, a)
    steps = range(min(short.size, out_len))
    for s in steps if a_short else reversed(steps):
        m = min(full.size, out_len - s)
        seg = short[s] + full[:m]
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
    the same maximizers.
    """
    f0, bp = _convolve(ct.g0, below, budget + 1)
    head_gain = ct.g1[0] - ct.g0[0] if budget else 0
    return TableSlice(f0, f0[:budget] + head_gain, bp)


def _merge_rows(rows: list[np.ndarray], limit: int) -> np.ndarray:
    """(max,min) merge of non-decreasing rows over every budget split: cell
    m is the (m+1)-th smallest cell of their union, capped at the smallest
    last cell, for m up to the sum of (length - 1) and below ``limit``."""
    size = min(sum(row.size for row in rows) - len(rows) + 1, limit)
    if size <= 0:  # the eps=1 rows at budget 0, all empty
        return np.zeros(0, dtype=np.int64)
    out = np.sort(np.concatenate(rows))[:size]
    return np.minimum(out, min(row[-1] for row in rows), out=out)


def combine_parallel(branches: list[TableSlice], budget: int) -> TableSlice:
    """Min-combine a junction's branches in one merge per eps.

    Matching eps on all sides is mandatory; the eps=1 rows merge on their
    own index (k - 1), so the shared junction upgrade is counted once.
    eps=0 cells run up to k = ``budget``, eps=1 cells (stored from k = 1)
    likewise. Every DP row is non-decreasing (``build_tree`` keeps
    ``0 <= w <= u``, so a best exact-k value can always take one more
    upgrade), so the merge is a sorted union. A single branch is its own
    merge.
    """
    if len(branches) == 1:
        return branches[0]
    return TableSlice(_merge_rows([b.f0 for b in branches], budget + 1),
                      _merge_rows([b.f1 for b in branches], budget))


def _branch_splits(rows: list[np.ndarray], caps: list[int],
                   m: int) -> list[int]:
    """Per-row indexes of the maximizing split of cell ``m`` of the merge
    of the rows and the one-cell rows of leaf edges, as the left-to-right
    pairwise merges would choose them; ``caps[q]`` is the smallest cell of
    the leaf edges before row q. Merging row q into the merge of everything
    before it, the split gives row q its smallest index reaching the merged
    value that leaves the rest inside the earlier rows; row 1 takes what is
    left. That value is at most ``caps[q]``, so the search in the uncapped
    row finds the index the capped row would give."""
    splits = [0] * len(rows)
    ends = np.cumsum([row.size for row in rows])
    cells = np.concatenate(rows)
    lasts = np.minimum.accumulate(np.minimum(cells[ends - 1], caps))
    for q in range(len(rows) - 1, 0, -1):
        if not m:
            break
        value = min(np.partition(cells[:ends[q]], m)[m], lasts[q])
        # The q rows before rows[q] can take at most ends[q - 1] - q of m.
        splits[q] = max(int(np.searchsorted(rows[q], value)),
                        m - int(ends[q - 1]) + q)
        m -= splits[q]
    splits[0] = m
    return splits


def _collapse(f0: np.ndarray, f1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best over eps per budget; ties keep eps=0."""
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


def build_tables(tree: RootedTree, budget: int) -> DpTables:
    """Run the full bottom-up pass; budgets above the upgradable count clamp.

    Tables hold int64 cells, each bounded by the longest all-upgraded
    root-leaf path; trees where that path exceeds the int64 range raise
    :class:`InstanceError`. This is the only check of the budget and of the
    int64 range: the chain g-rows and both merges trust their operands.

    Each value row lives only until the merge above it has read it, except
    the eps=0 branch rows kept where two or more branches merge;
    backpointers are int32 and eps rows int8. A chain ending in a leaf runs
    no serial merge: its g-rows are the branch row.
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

    junctions: dict[int, tuple] = {}
    subtree_best: dict[int, np.ndarray] = {}  # junctions not yet merged
    w, u, leaves = tree.w, tree.u, tree.leaves

    for v in dec.order:
        found = []  # per branch: chain, backpointers, leaf-edge minima, rows
        cap_w = cap_u = _INT64_MAX  # over the leaf edges so far
        for h in dec.cd[v]:
            chain = dec.chains[h]
            if chain.beta == 1 and h in leaves:
                # A leaf edge: its rows are [w] and [u] and its only split
                # is k1 = eps, so its merge is a cap on the junction's row.
                # Comparisons rather than min(): a call per edge showed in
                # the solve time of brooms.
                cap_w = w[h] if w[h] < cap_w else cap_w
                cap_u = u[h] if u[h] < cap_u else cap_u
                continue
            if chain.beta == 1:
                # One edge into a junction: its rows are [w] and [u], so its
                # only split is k_chain = eps and the serial merge is a shift.
                below = subtree_best.pop(h)
                sl = TableSlice(below[:k_cap + 1] + w[h], below[:k_cap] + u[h])
            else:
                ct = chain_g_table(chain, k_cap)
                sl = (TableSlice(ct.g0, ct.g1) if h in leaves  # all on chain
                      else combine_serial(ct, subtree_best.pop(h), k_cap))
            found.append((chain, sl.bp, (cap_w, cap_u), sl))
        chains, bps, caps, rows = zip(*found) if found else ((),) * 4
        # Only leaf edges: rows that bound nothing, which the cap then sets.
        merged = (combine_parallel(list(rows), k_cap) if rows else TableSlice(
            np.full(1, _INT64_MAX, dtype=np.int64),
            np.full(min(1, k_cap), _INT64_MAX, dtype=np.int64)))
        subtree_best[v], eps = _collapse(np.minimum(merged.f0, cap_w),
                                         np.minimum(merged.f1, cap_u))
        junctions[v] = (eps, chains, bps) + (
            (caps, tuple(r.f0 for r in rows)) if len(rows) > 1 and k_cap
            else ((), ()))
    root_best = subtree_best.pop(tree.root)
    if len(root_best) != k_cap + 1:
        raise RuntimeError(
            f"internal error: root row has {len(root_best)} cells, "
            f"expected {k_cap + 1}")

    return DpTables(tree, junctions, root_best)


def _extract_upgrades(tables: DpTables, k_root: int) -> set[int]:
    """Walk the splits down from the root cell for budget ``k_root`` and
    materialize the upgrade set."""
    budget = len(tables.root_best) - 1
    upgraded: set[int] = set()
    stack = [(tables.tree.root, k_root)]
    while stack:
        v, k = stack.pop()
        eps_row, chains, bps, caps, rows = tables.junctions[v]
        eps = int(eps_row[k])
        if eps:
            upgraded.add(v)
        splits = [k - eps]  # one branch, or no budget to split
        if rows:  # an eps=1 row is the eps=0 row raised by the head gain
            splits = _branch_splits(
                [f0[:budget] + chain.head_delta if eps else f0
                 for chain, f0 in zip(chains, rows)],
                [cap[eps] for cap in caps], k - eps)
        for chain, bp, i in zip(chains, bps, splits):
            # With no serial merge, the chain takes all the budget it holds.
            k_chain = eps + (int(bp[i]) if bp is not None
                             else min(i, chain.beta - 1))
            upgraded |= chain.upgrade_set(eps, k_chain)
            k_below = i + eps - k_chain
            if k_below > 0:
                stack.append((chain.bottom, k_below))
    return upgraded


def _read_solution(tables: DpTables, k: int) -> Solution:
    """Optimum with at most ``k < len(tables.root_best)`` upgrades and its
    set.

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
    return _read_solution(tables, len(tables.root_best) - 1)


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
