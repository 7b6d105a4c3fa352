import random
import tracemalloc

import pytest

from interdict import (
    CycleDetected,
    DisconnectedInput,
    DuplicateChild,
    GeneratorConfig,
    LeafInSet,
    NegativeWeight,
    TrivialTree,
    UpgradeBelowBase,
    all_upgraded_min_distance,
    build_tree,
    evaluate_min_distance,
    random_tree,
)
from interdict.solver import decompose
from interdict.tree import AppliedWeights
from conftest import EX1_RECORDS


def naive_min_distance(tree, upgraded):
    """Independent recomputation: walk every leaf's parents explicitly."""
    s = set(upgraded)
    best = None
    for leaf in tree.leaves:
        total = 0
        v = leaf
        while v != tree.root:
            total += tree.u[v] if tree.parent[v] in s else tree.w[v]
            v = tree.parent[v]
        best = total if best is None else min(best, total)
    return best


class TestBuildTree:
    def test_ex1_shape(self, ex1):
        assert ex1.node_count == 10
        assert sorted(ex1.leaves) == [3, 4, 6, 8, 10]
        assert sorted(ex1.non_leaves) == [1, 2, 5, 7, 9]
        assert ex1.children[1] == (2, 5, 7)
        # Nodes 1, 2 and 5 have undirected degree 3, 3 and 2.
        assert ex1.children[2] == (3, 4) and ex1.children[5] == (6,)

    def test_single_edge(self):
        t = build_tree([(2, 1, 5, 7)], root=1)
        assert t.node_count == 2
        assert t.leaves == {2}

    def test_upgrade_below_base(self):
        with pytest.raises(UpgradeBelowBase):
            build_tree([(2, 1, 3, 2)], root=1)

    def test_trivial(self):
        with pytest.raises(TrivialTree):
            build_tree([], root=1)

    def test_duplicate_child(self):
        with pytest.raises(DuplicateChild):
            build_tree([(2, 1, 1, 1), (2, 3, 1, 1)], root=1)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_tree([(2, 1, -1, 2)], root=1)

    def test_cycle(self):
        with pytest.raises(CycleDetected, match=r"nodes \[2, 3\] form a cycle"):
            build_tree([(2, 3, 1, 1), (3, 2, 1, 1), (4, 1, 1, 1)], root=1)

    def test_root_with_parent(self):
        with pytest.raises(CycleDetected):
            build_tree([(1, 2, 1, 1), (2, 1, 1, 1)], root=1)

    def test_disconnected(self):
        with pytest.raises(DisconnectedInput):
            build_tree([(2, 1, 1, 1), (3, 9, 1, 1)], root=1)

    def test_children_sorted(self):
        t = build_tree([(5, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1)], root=1)
        assert t.children[1] == (3, 4, 5)

    def test_bfs_order(self, ex1):
        assert ex1.bfs_order == (1, 2, 5, 7, 3, 4, 6, 8, 9, 10)
        for seed in range(20):
            tree = random_tree(GeneratorConfig(n=30, seed=seed, shape="binary-ish"))
            assert sorted(tree.bfs_order) == sorted(tree.children)
            seen = set()
            for v in tree.bfs_order:
                assert v == tree.root or tree.parent[v] in seen
                seen.add(v)


class TestEvaluate:
    def test_baseline(self, ex1):
        assert evaluate_min_distance(ex1, ()) == 7

    def test_root_upgraded(self, ex1):
        assert evaluate_min_distance(ex1, {1}) == 13

    def test_two_upgraded(self, ex1):
        assert evaluate_min_distance(ex1, {1, 7}) == 14

    def test_leaf_rejected(self, ex1):
        with pytest.raises(LeafInSet):
            evaluate_min_distance(ex1, {3})

    def test_unknown_node(self, ex1):
        with pytest.raises(ValueError):
            evaluate_min_distance(ex1, {42})

    def test_applied_weights(self, ex1):
        applied = AppliedWeights(ex1, frozenset({1}))
        assert applied[2] == 10 and applied[5] == 10 and applied[7] == 10
        assert applied[3] == 7 and applied[8] == 3

    def test_matches_naive_recompute(self):
        rng = random.Random(7)
        for shape in ("uniform-attachment", "caterpillar", "broom"):
            checked = 0
            while checked < 1000:
                n = rng.randint(2, 14)
                cfg = GeneratorConfig(n=n, seed=rng.randrange(2**32), w_max=9,
                                      delta_max=9, shape=shape)
                tree = random_tree(cfg)
                pool = sorted(tree.non_leaves)
                for _ in range(4):
                    s = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
                    assert (evaluate_min_distance(tree, s)
                            == naive_min_distance(tree, s))
                    checked += 1

    def test_monotone_in_set(self):
        rng = random.Random(11)
        for trial in range(100):
            tree = random_tree(GeneratorConfig(
                n=rng.randint(3, 12), seed=trial, w_max=8, delta_max=8))
            pool = sorted(tree.non_leaves)
            small = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            big = small | frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            lo = evaluate_min_distance(tree, ())
            hi = all_upgraded_min_distance(tree)
            vs, vb = evaluate_min_distance(tree, small), evaluate_min_distance(tree, big)
            assert lo <= vs <= vb <= hi


class TestAllUpgraded:
    def test_ex1_ceiling(self, ex1):
        assert all_upgraded_min_distance(ex1) == 20

    def test_single_edge(self):
        assert all_upgraded_min_distance(build_tree([(2, 1, 5, 7)], 1)) == 7

    def test_no_gain_when_u_equals_w(self):
        tree = random_tree(GeneratorConfig(n=9, seed=5, w_max=9, delta_max=0))
        assert all_upgraded_min_distance(tree) == evaluate_min_distance(tree, ())

    def test_ex1_original_records_intact(self, ex1):
        # fixture must stay the canonical instance used everywhere
        assert ex1.w[5] == 1 and ex1.w[6] == 8 and ex1.w[3] == 7
        assert all(u == 10 for u in ex1.u.values())
        assert EX1_RECORDS[0] == (2, 1, 6, 10)


def _deep_records(shape, n, seed):
    """Broom or caterpillar on ids 1..n, every parent id below its child's."""
    rng = random.Random(seed)
    handle, spine = n // 2, (n + 1) // 2
    records = []
    for i in range(2, n + 1):
        if shape == "broom":
            p = i - 1 if i <= handle + 1 else handle + 1
        else:
            p = i - 1 if i <= spine else rng.randrange(1, spine + 1)
        w = rng.randint(0, 100)
        records.append((i, p, w, w + rng.randint(0, 100)))
    return records


def _top_down_min(records, n, use_u):
    """Independent recompute: ids ascend from parent to child."""
    dist = [0] * (n + 1)
    has_child = [False] * (n + 1)
    for c, p, w, u in records:
        dist[c] = dist[p] + (u if use_u else w)
        has_child[p] = True
    return min(dist[v] for v in range(2, n + 1) if not has_child[v])


class TestDeepTrees:
    """A per-leaf path store would hold about 2.5e9 entries for this broom."""

    @pytest.mark.parametrize("shape", ["broom", "caterpillar"])
    def test_linear_memory(self, shape):
        n = 100_000
        records = _deep_records(shape, n, seed=3)
        tracemalloc.start()
        try:
            tree = build_tree(records, root=1)
            base = evaluate_min_distance(tree, ())
            ceiling = all_upgraded_min_distance(tree)
            dec = decompose(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2**20
        assert tree.node_count == n and len(tree.bfs_order) == n
        assert sum(c.beta for c in dec.chains.values()) == n - 1
        assert base == _top_down_min(records, n, use_u=False)
        assert ceiling == _top_down_min(records, n, use_u=True)
