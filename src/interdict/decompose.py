"""Structural decomposition of a rooted tree into junctions and chains.

A *junction* is the root or any non-root node of undirected degree > 2.
Walking up from a branching node or a leaf, the first junction reached is
its *critical ancestor*; the path between them is a *chain* whose interior
nodes all have degree 2. Chains partition the edge set, and the solver
merges per-chain tables junction by junction, from the deepest junction
layer up to the root.

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
    edge_layer: dict[int, int]
    branching: frozenset[int]
    cd: dict[int, tuple[int, ...]]
    ca: dict[int, int]
    chains: dict[int, Chain]
    order: tuple[int, ...]


def compute_layers(tree: RootedTree) -> tuple[dict[int, int], dict[int, int]]:
    """Label nodes breadth-first: the layer increments only at degree>2 nodes.

    An edge inherits the layer of its upper endpoint, so all edges of one
    chain share a layer number.
    """
    layer = {tree.root: 1}
    edge_layer: dict[int, int] = {}
    for c in tree.bfs_order[1:]:
        lp = layer[tree.parent[c]]
        layer[c] = lp + 1 if tree.degree(c) > 2 else lp
        edge_layer[c] = lp
    return layer, edge_layer


def critical_structure(
    tree: RootedTree, layer: dict[int, int]
) -> tuple[frozenset[int], dict[int, tuple[int, ...]], dict[int, int]]:
    """Branching set, critical descendants (ascending id) and ancestors."""
    branching = frozenset(
        v for v in tree.nodes if v != tree.root and tree.degree(v) > 2)
    junctions = branching | {tree.root}
    ca: dict[int, int] = {}
    cd_lists: dict[int, list[int]] = {v: [] for v in junctions}
    for bottom in branching | tree.leaves:
        cur = tree.parent[bottom]
        while cur not in junctions:
            cur = tree.parent[cur]
        ca[bottom] = cur
        cd_lists[cur].append(bottom)
    cd = {v: tuple(sorted(members)) for v, members in cd_lists.items()}
    return branching, cd, ca


def extract_chains(
    tree: RootedTree, cd: dict[int, tuple[int, ...]], ca: dict[int, int]
) -> dict[int, Chain]:
    """One chain per critical descendant, keyed by its bottom node."""
    chains: dict[int, Chain] = {}
    for bottom, top in ca.items():
        path = [bottom]
        cur = tree.parent[bottom]
        while cur != top:
            path.append(cur)
            cur = tree.parent[cur]
        path.reverse()  # child-keyed edges, top to bottom
        head = path[0]
        # Tail slots sort by gain descending, ties by ascending owner id; the
        # owner of a tail edge is its physical parent, always degree 2.
        tail = sorted(
            ((tree.delta(e), tree.parent[e], e) for e in path[1:]),
            key=lambda t: (-t[0], t[1]),
        )
        chains[bottom] = Chain(
            top=top,
            bottom=bottom,
            edges=(head, *(e for _, _, e in tail)),
            beta=len(path),
            w_sum=sum(tree.w[e] for e in path),
            head_delta=tree.delta(head),
            tail_deltas=tuple(d for d, _, _ in tail),
            tail_owners=tuple(o for _, o, _ in tail),
        )
    return chains


def processing_order(
    branching: frozenset[int], layer: dict[int, int], root: int
) -> tuple[int, ...]:
    """Junctions sorted deepest layer first (ties: descending id), so every
    junction below has its tables ready when its ancestor is processed."""
    return tuple(sorted(branching | {root}, key=lambda v: (-layer[v], -v)))


def decompose(tree: RootedTree) -> Decomposition:
    layer, edge_layer = compute_layers(tree)
    branching, cd, ca = critical_structure(tree, layer)
    chains = extract_chains(tree, cd, ca)
    order = processing_order(branching, layer, tree.root)
    return Decomposition(
        layer=layer,
        edge_layer=edge_layer,
        branching=branching,
        cd=cd,
        ca=ca,
        chains=chains,
        order=order,
    )
