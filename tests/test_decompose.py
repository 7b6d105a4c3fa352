import random

import pytest

from interdict import (
    SHAPES,
    GeneratorConfig,
    build_tree,
    random_tree,
)
from interdict.cli import _layers
from interdict.solver import decompose
from conftest import make_path, make_star, small_battery


def layers(tree):
    return _layers(tree, decompose(tree))


def degree(tree, v):
    """Undirected degree: child edges plus the parent edge, if any."""
    return len(tree.children[v]) + (v != tree.root)


def gain(tree, e):
    """Upgrade gain of the child-keyed edge ``e``."""
    return tree.u[e] - tree.w[e]


def chain_edges(tree, c):
    """A chain's child-keyed edges, walked up from its bottom: ``beta``
    edges, the last one hanging off the top if ``beta`` is right."""
    edges = [c.bottom]
    for _ in range(c.beta - 1):
        edges.append(tree.parent[edges[-1]])
    return edges


class TestLayers:
    def test_ex1_layers(self, ex1):
        layer = layers(ex1)
        assert layer[1] == 1 and layer[5] == 1
        assert layer[2] == 2 and layer[7] == 2
        assert layer[3] == 2 and layer[9] == 2 and layer[10] == 2
        assert layer[6] == 1

    def test_ex1_edge_layer(self, ex1):
        # An edge sits in its upper endpoint's layer; a chain's edges share
        # the layer of the chain's top.
        dec = decompose(ex1)
        layer = _layers(ex1, dec)
        assert layer[ex1.parent[2]] == 1  # edge (v1, v2)
        assert layer[ex1.parent[3]] == 2  # edge (v2, v3)
        assert layer[ex1.parent[6]] == 1
        for c in dec.chains.values():
            assert {layer[ex1.parent[e]] for e in chain_edges(ex1, c)} == \
                {layer[c.top]}

    def test_path_all_layer_one(self):
        tree = make_path(9, seed=1)
        assert set(layers(tree).values()) == {1}

    def test_monotone_along_paths(self):
        for tree in (random_tree(GeneratorConfig(n=30, seed=s)) for s in range(5)):
            layer = layers(tree)
            for v, p in tree.parent.items():
                assert layer[p] <= layer[v] <= layer[p] + 1


class TestCriticalStructure:
    def test_ex1_cd_ca(self, ex1):
        dec = decompose(ex1)
        assert set(dec.cd) == {1, 2, 7}
        assert dec.cd[1] == (2, 6, 7)
        assert dec.cd[2] == (3, 4)
        assert dec.cd[7] == (8, 10)
        assert dec.chains[2].top == 1 and dec.chains[6].top == 1
        assert dec.chains[10].top == 7

    def test_cd_size_matches_degree(self, battery):
        for tree in battery[:150]:
            dec = decompose(tree)
            for v in dec.cd:
                expected = degree(tree, v) if v == tree.root else degree(tree, v) - 1
                assert len(dec.cd[v]) == expected
                assert all(dec.chains[h].top == v for h in dec.cd[v])


class TestChains:
    def test_ex1_chain_v6(self, ex1):
        dec = decompose(ex1)
        c = dec.chains[6]
        assert (c.top, c.bottom, c.beta) == (1, 6, 2)
        assert c.w_sum == 9 and c.head_delta == 9
        assert c.tail_deltas == (2,)
        assert c.tail_owners == (5,)

    def test_ex1_chain_v10(self, ex1):
        c = decompose(ex1).chains[10]
        assert c.w_sum == 9 and c.beta == 2
        assert c.head_delta == 6 and c.tail_deltas == (5,)
        assert c.tail_owners == (9,)

    def test_tail_sorting_with_owner_permutation(self):
        # path 1-2-3-4-5: tail gains 3, 9, 5 must come out as 9, 5, 3
        records = [(2, 1, 0, 1), (3, 2, 0, 3), (4, 3, 0, 9), (5, 4, 0, 5)]
        tree = build_tree(records, root=1)
        c = decompose(tree).chains[5]
        assert c.head_delta == 1
        assert c.tail_deltas == (9, 5, 3)
        assert c.tail_owners == (3, 4, 2)
        # Slot order: the head edge, then the one child edge of each owner.
        head = chain_edges(tree, c)[-1]
        assert (head, *(tree.children[o][0] for o in c.tail_owners)) == \
            (2, 4, 5, 3)

    def test_tail_tie_breaks_ascending_owner(self):
        records = [(2, 1, 0, 5), (3, 2, 0, 5), (4, 3, 0, 5)]
        tree = build_tree(records, root=1)
        c = decompose(tree).chains[4]
        assert c.tail_owners == (2, 3)

    def test_upgrade_set(self):
        records = [(2, 1, 0, 1), (3, 2, 0, 9), (4, 3, 0, 5)]
        tree = build_tree(records, root=1)
        c = decompose(tree).chains[4]
        assert c.upgrade_set(0, 0) == frozenset()
        assert c.upgrade_set(0, 1) == {2}
        assert c.upgrade_set(0, 2) == {2, 3}
        assert c.upgrade_set(1, 1) == {1}
        assert c.upgrade_set(1, 3) == {1, 2, 3}

    def test_partition_and_interior_degree(self, battery):
        rng = random.Random(0)
        for tree in rng.sample(battery, 120):
            dec = decompose(tree)
            all_edges = []
            for c in dec.chains.values():
                edges = chain_edges(tree, c)
                all_edges.extend(edges)
                assert c.beta >= 1
                assert tree.parent[edges[-1]] == c.top
                for owner in c.tail_owners:
                    assert degree(tree, owner) == 2
                assert sorted(c.tail_owners) == \
                    sorted(tree.parent[e] for e in edges[:-1])
                assert c.w_sum == sum(tree.w[e] for e in edges)
            assert sorted(all_edges) == sorted(tree.parent)  # exact partition
            assert sum(c.beta for c in dec.chains.values()) == tree.node_count - 1


class TestProcessingOrder:
    def test_ex1_order(self, ex1):
        assert decompose(ex1).order == (7, 2, 1)

    def test_star(self):
        assert decompose(make_star(6, seed=2)).order == (1,)

    def test_path(self):
        dec = decompose(make_path(7, seed=3))
        assert list(dec.cd) == [1]
        assert dec.order == (1,)

    def test_descendants_processed_first(self, battery):
        for tree in battery[:100]:
            dec = decompose(tree)
            pos = {v: i for i, v in enumerate(dec.order)}
            for v in dec.order:
                for h in dec.cd[v]:
                    if h not in tree.leaves:
                        assert pos[h] < pos[v]


CHAIN_FIELDS = ("top", "bottom", "beta", "w_sum", "head_delta", "tail_deltas",
                "tail_owners")


def reference_decomposition(tree):
    """``cd``, ``order`` and each chain's fields by a direct walk up from
    every non-root node that is not of degree 2 to the first junction."""
    junctions = {tree.root} | {v for v in tree.parent if degree(tree, v) > 2}
    cd = {v: [] for v in junctions}
    chains = {}
    for bottom in sorted(tree.parent):
        if degree(tree, bottom) == 2:
            continue
        path = [bottom]
        while tree.parent[path[-1]] not in junctions:
            path.append(tree.parent[path[-1]])
        top = tree.parent[path[-1]]
        cd[top].append(bottom)
        tail = sorted(((gain(tree, e), tree.parent[e]) for e in path[:-1]),
                      key=lambda t: (-t[0], t[1]))
        chains[bottom] = (top, bottom, len(path),
                          sum(tree.w[e] for e in path), gain(tree, path[-1]),
                          tuple(d for d, _ in tail), tuple(o for _, o in tail))
    order = tuple(v for v in reversed(tree.bfs_order) if v in junctions)
    return {v: tuple(hs) for v, hs in cd.items()}, chains, order


def broom(handle, fan, seed):
    """A path of ``handle`` edges from the root into ``fan`` leaves."""
    rng = random.Random(seed)
    records = []
    for c in range(2, handle + fan + 2):
        w = rng.randint(0, 2)
        records.append((c, min(c - 1, handle + 1), w, w + rng.randint(0, 2)))
    return build_tree(records, root=1)


def reference_battery():
    """Named generator trees with lengths in 0..4, so tail gains tie often,
    plus a star, a path and two brooms."""
    trees = {f"{shape}-{seed}-{n}": random_tree(GeneratorConfig(
                 n=n, seed=seed, w_max=2, delta_max=2, shape=shape))
             for shape in SHAPES for seed in range(1, 6) for n in (2, 9, 60, 300)}
    trees.update({"star": make_star(12, seed=4), "path": make_path(12, seed=4),
                  "broom": broom(6, 5, seed=4), "short-broom": broom(1, 3, seed=5)})
    return trees


REFERENCE_TREES = reference_battery()


class TestAgainstReferenceWalk:
    @pytest.mark.parametrize("tree", list(REFERENCE_TREES.values()),
                             ids=list(REFERENCE_TREES))
    def test_matches_reference(self, tree):
        dec = decompose(tree)
        cd, chains, order = reference_decomposition(tree)
        assert dec.cd == cd
        assert dec.order == order
        assert {b: tuple(getattr(c, f) for f in CHAIN_FIELDS)
                for b, c in dec.chains.items()} == chains

    def test_chain_is_immutable(self, ex1):
        chain = decompose(ex1).chains[6]
        with pytest.raises(AttributeError):
            chain.beta = 3
