"""Rooted edge-weighted trees and the minimum root-leaf distance evaluator.

Every edge is keyed by its child endpoint, so a node ``v`` other than the
root identifies the unique edge ``(parent(v), v)``. Each edge carries a base
length ``w`` and an upgraded length ``u`` with ``0 <= w <= u``. Upgrading a
non-leaf node raises every edge from that node to its children from ``w``
to ``u``; the quantity being attacked or defended is the minimum over all
leaves of the root-to-leaf path length.

A tree is stored once, as the dicts ``parent``/``children``/``w``/``u``
keyed by node id, plus ``bfs_order``: every node reachable from the root,
root first, so each parent precedes its children. Whole-tree passes walk
that one order, top-down or reversed for bottom-up; the evaluator is a
single top-down distance pass in exact integers.

Trees are immutable after construction and safe to share across threads.
Use :func:`build_tree` to construct one; it performs all validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    LeafInSet,
    NegativeWeight,
    TrivialTree,
    UpgradeBelowBase,
    _decimal,
)

EdgeRecord = tuple[int, int, int, int]  # (child, parent, w, u)


class RootedTree:
    """Immutable rooted tree with per-edge base and upgraded lengths.

    ``parent``, ``w`` and ``u`` are keyed by child (edge) id, ``children``
    by node id with sorted tuples. ``bfs_order`` lists the nodes
    breadth-first from the root, children in ascending id.

    Do not call the constructor directly; it assumes pre-validated input.
    :func:`build_tree` validates and builds.
    """

    __slots__ = (
        "node_count",
        "root",
        "parent",
        "children",
        "w",
        "u",
        "nodes",
        "leaves",
        "non_leaves",
        "bfs_order",
    )

    def __init__(self, parent: Mapping[int, int], w: Mapping[int, int],
                 u: Mapping[int, int], root: int):
        self.root = root
        self.parent = dict(parent)
        self.w = dict(w)
        self.u = dict(u)
        self.node_count = len(self.parent) + 1

        children: dict[int, list[int]] = {root: []}
        for c in self.parent:
            children.setdefault(c, [])
        for c, p in self.parent.items():
            children[p].append(c)
        self.children = {v: tuple(sorted(cs)) for v, cs in children.items()}

        self.nodes = tuple(sorted(self.children))
        self.leaves = frozenset(v for v, cs in self.children.items() if not cs)
        self.non_leaves = frozenset(self.children) - self.leaves

        # Nodes on a cycle are never reached; build_tree rejects those trees.
        order = [root]
        for v in order:
            order.extend(self.children[v])
        self.bfs_order = tuple(order)

    def degree(self, v: int) -> int:
        """Undirected degree: child edges plus the parent edge (if any)."""
        return len(self.children[v]) + (0 if v == self.root else 1)

    def is_leaf(self, v: int) -> bool:
        return v in self.leaves

    def delta(self, edge: int) -> int:
        """Upgrade gain of an edge (child-keyed): u - w."""
        return self.u[edge] - self.w[edge]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RootedTree(n={self.node_count}, root={self.root}, "
                f"leaves={len(self.leaves)})")


@dataclass(frozen=True)
class Solution:
    """An upgrade set together with its objective value.

    ``applied_weights`` maps every edge (child-keyed) to the length it takes
    once the set is applied: ``u`` if the edge's parent endpoint is upgraded,
    ``w`` otherwise. The solvers give an :class:`AppliedWeights` view, which
    reads each length off the tree when asked. ``value`` is the minimum
    root-leaf distance under those lengths.
    """

    value: int
    upgraded: frozenset[int]
    applied_weights: Mapping[int, int]


class AppliedWeights(Mapping[int, int]):
    """Read-only edge -> length view of ``tree`` with ``upgraded`` applied.

    Building it is O(1); each lookup is O(1). ``dict(view)`` equals
    :func:`apply_upgrades` of the same arguments.
    """

    __slots__ = ("_tree", "_upgraded")

    def __init__(self, tree: RootedTree, upgraded: frozenset[int]):
        self._tree = tree
        self._upgraded = upgraded

    def __getitem__(self, edge: int) -> int:
        tree = self._tree
        if tree.parent[edge] in self._upgraded:
            return tree.u[edge]
        return tree.w[edge]

    def __iter__(self) -> Iterator[int]:
        return iter(self._tree.parent)

    def __len__(self) -> int:
        return len(self._tree.parent)


def build_tree(edge_records: Sequence[EdgeRecord], root: int) -> RootedTree:
    """Validate edge records and build a :class:`RootedTree`.

    Each record is ``(child, parent, w, u)``. There must be exactly one
    record per non-root node, weights must satisfy ``0 <= w <= u``, and the
    records must form a single tree hanging from ``root``.
    """
    if not edge_records:
        raise TrivialTree("an instance needs at least two nodes (one edge)")

    parent: dict[int, int] = {}
    w: dict[int, int] = {}
    u: dict[int, int] = {}
    for child, par, wv, uv in edge_records:
        if child == par:
            raise CycleDetected(f"self-loop at node {child}")
        if child in parent:
            raise DuplicateChild(f"node {child} has two parent edges")
        if wv < 0 or uv < 0:
            raise NegativeWeight(f"edge into node {child}: w {_decimal(wv)} "
                                 f"and u {_decimal(uv)} must be >= 0")
        if wv > uv:
            raise UpgradeBelowBase(f"edge into node {child}: w {_decimal(wv)} "
                                   f"exceeds u {_decimal(uv)}")
        parent[child] = par
        w[child] = wv
        u[child] = uv

    if root in parent:
        raise CycleDetected(f"root {root} has a parent edge")
    stray = set(parent.values()) - set(parent) - {root}
    if stray:
        raise DisconnectedInput(
            f"nodes {sorted(stray)} are used as parents but never reach the root")

    tree = RootedTree(parent, w, u, root)
    if len(tree.bfs_order) != tree.node_count:
        cyclic = sorted(set(parent) - set(tree.bfs_order))
        raise CycleDetected(f"nodes {cyclic} form a cycle")
    return tree


def apply_upgrades(tree: RootedTree, upgraded: Iterable[int]) -> dict[int, int]:
    """Weight function after upgrading ``upgraded``: u on their child edges."""
    return dict(AppliedWeights(tree, frozenset(upgraded)))


def _leaf_distances(tree: RootedTree, upgraded: frozenset[int]) -> Iterator[int]:
    """Root-to-leaf lengths under ``upgraded``: one top-down pass, exact ints."""
    parent, w, u = tree.parent, tree.w, tree.u
    dist = {tree.root: 0}
    for v in tree.bfs_order[1:]:
        p = parent[v]
        dist[v] = dist[p] + (u[v] if p in upgraded else w[v])
    return (dist[leaf] for leaf in tree.leaves)


def evaluate_min_distance(tree: RootedTree, upgraded: Iterable[int]) -> int:
    """Minimum root-leaf distance after upgrading the given non-leaf nodes.

    This is the ground-truth objective: every other routine in the package
    is checked against it. Raises :class:`LeafInSet` if the set contains a
    leaf and ``ValueError`` for unknown node ids.
    """
    s = frozenset(upgraded)
    bad_leaves = s & tree.leaves
    if bad_leaves:
        raise LeafInSet(f"cannot upgrade leaf nodes {sorted(bad_leaves)}")
    unknown = [v for v in s if v not in tree.children]
    if unknown:
        raise ValueError(f"unknown node ids {sorted(unknown)}")
    return min(_leaf_distances(tree, s))


def all_upgraded_min_distance(tree: RootedTree) -> int:
    """Objective when every non-leaf node is upgraded: the feasibility ceiling."""
    return evaluate_min_distance(tree, tree.non_leaves)
