"""Structural decomposition of a rooted tree into junctions and chains.

A *junction* is the root or any non-root node of undirected degree > 2.
Walking up from a branching node or a leaf, the first junction reached is
its *critical ancestor*; the path between them is a *chain* whose interior
nodes all have degree 2. Chains partition the edge set, and the solver
merges per-chain tables junction by junction. A junction's table depends
only on the subtree below it, so any order that puts every junction after
the junctions below it gives the same tables and upgrade sets.

:func:`decompose` finds the chain bottoms with one pass over the tree's BFS
order and walks up once per chain, and checks that the chains cover every
edge and every upgradable node exactly once.

Within a chain, upgrades of interior (degree-2) nodes are exchangeable:
an optimal solution may always spend its interior upgrades on the largest
upgrade gains first. Each chain therefore stores its tail (positions
2..beta) sorted by gain, with the original owner of each slot retained so
reported upgrade sets refer to the physical tree. Position 1 is never
permuted: its edge hangs directly off the junction and can only be
upgraded by upgrading the junction itself, which all sibling chains share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .tree import RootedTree


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
    junctions below it. A chain whose bottom hangs directly off a junction
    takes a fast path: one edge, no tail, no walk and no sort. Raises
    ``RuntimeError`` if the chains do not partition the edges and the
    upgradable nodes.
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
