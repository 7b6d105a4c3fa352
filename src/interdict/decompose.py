"""Structural decomposition of a rooted tree into junctions and chains.

A *junction* is the root or any non-root node of undirected degree > 2.
Walking up from a branching node or a leaf, the first junction reached is
its *critical ancestor*; the path between them is a *chain* whose interior
nodes all have degree 2. Chains partition the edge set, and the solver
merges per-chain tables junction by junction, from the deepest junction
layer up to the root. A node's *layer* counts the junctions on its root
path (the root is layer 1; only degree>2 nodes add one).

:func:`decompose` derives all of this with one pass over the tree's BFS
order (layers and chain bottoms) and one upward walk per chain, and checks
that the chains cover every edge and every upgradable node exactly once.

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

from .tree import RootedTree


@dataclass(frozen=True)
class Chain:
    """A junction-to-junction (or junction-to-leaf) path with sorted tail.

    ``edges`` lists child-keyed edge ids from ``top`` to ``bottom`` after
    the tail permutation; ``tail_deltas``/``tail_owners`` align with
    positions 2..beta. ``upgrade_set`` materializes which physical nodes
    realize ``k`` upgrades on the chain with the top's flag ``eps``.
    """

    top: int
    bottom: int
    edges: tuple[int, ...]
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

    layer: dict[int, int]
    branching: frozenset[int]
    cd: dict[int, tuple[int, ...]]
    chains: dict[int, Chain]
    order: tuple[int, ...]


def decompose(tree: RootedTree) -> Decomposition:
    """Layers, junctions, chains and the junction processing order.

    Critical descendants are listed in ascending id; junctions are ordered
    deepest layer first (ties: descending id), so every junction below is
    ready when its ancestor is processed. Raises ``RuntimeError`` if the
    chains do not partition the edges and the upgradable nodes.
    """
    layer = {tree.root: 1}
    bottoms = []
    for c in tree.bfs_order[1:]:
        degree = tree.degree(c)
        layer[c] = layer[tree.parent[c]] + (degree > 2)
        if degree != 2:
            bottoms.append(c)
    bottoms.sort()
    branching = frozenset(v for v in bottoms if tree.degree(v) > 2)
    cd_lists: dict[int, list[int]] = {v: [] for v in branching | {tree.root}}
    chains: dict[int, Chain] = {}
    for bottom in bottoms:
        path = [bottom]
        cur = tree.parent[bottom]
        while cur not in cd_lists:
            path.append(cur)
            cur = tree.parent[cur]
        cd_lists[cur].append(bottom)
        path.reverse()  # child-keyed edges, top to bottom
        head = path[0]
        # Tail slots sort by gain descending, ties by ascending owner id; the
        # owner of a tail edge is its physical parent, always degree 2.
        tail = sorted(
            ((tree.delta(e), tree.parent[e], e) for e in path[1:]),
            key=lambda t: (-t[0], t[1]),
        )
        chains[bottom] = Chain(
            top=cur,
            bottom=bottom,
            edges=(head, *(e for _, _, e in tail)),
            beta=len(path),
            w_sum=sum(tree.w[e] for e in path),
            head_delta=tree.delta(head),
            tail_deltas=tuple(d for d, _, _ in tail),
            tail_owners=tuple(o for _, o, _ in tail),
        )
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
    order = tuple(sorted(cd, key=lambda v: (-layer[v], -v)))
    return Decomposition(layer=layer, branching=branching, cd=cd,
                         chains=chains, order=order)
