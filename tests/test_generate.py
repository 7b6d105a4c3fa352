import hashlib

import pytest

from interdict import (
    SHAPES,
    GeneratorConfig,
    format_instance,
    random_tree,
)
from interdict.solver import decompose

GOLDEN_N12_SEED7_SHA256 = (
    "b58e28eefa421c635eab1a969ee54538355bd3eca440ae3818b9135669ce200e")


class TestDeterminism:
    def test_identical_configs_identical_trees(self):
        for shape in SHAPES:
            cfg = GeneratorConfig(n=25, seed=3, shape=shape)
            a, b = random_tree(cfg), random_tree(cfg)
            assert a.parent == b.parent and a.w == b.w and a.u == b.u

    def test_golden_hash(self):
        text = format_instance(random_tree(GeneratorConfig(n=12, seed=7)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_N12_SEED7_SHA256

    def test_seeds_differ(self):
        a = random_tree(GeneratorConfig(n=25, seed=1))
        b = random_tree(GeneratorConfig(n=25, seed=2))
        assert a.parent != b.parent or a.w != b.w


class TestValidity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_small_instances_valid(self, shape, n):
        tree = random_tree(GeneratorConfig(n=n, seed=11, shape=shape))
        assert tree.node_count == n

    def test_large_instance_valid(self):
        tree = random_tree(GeneratorConfig(n=3000, seed=1))
        assert tree.node_count == 3000

    def test_weight_bounds(self):
        cfg = GeneratorConfig(n=200, seed=5, w_max=7, delta_max=3)
        tree = random_tree(cfg)
        for edge in tree.parent:
            assert 0 <= tree.w[edge] <= 7
            assert tree.w[edge] <= tree.u[edge] <= tree.w[edge] + 3

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=1, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=5, seed=0, w_max=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(n=5, seed=0, shape="mystery")


class TestShapes:
    def test_broom_has_long_chain_into_fan(self):
        tree = random_tree(GeneratorConfig(n=20, seed=2, shape="broom"))
        dec = decompose(tree)
        assert max(c.beta for c in dec.chains.values()) >= 9
        assert len(tree.leaves) >= 9

    def test_binaryish_fanout_bounded(self):
        tree = random_tree(GeneratorConfig(n=60, seed=4, shape="binary-ish"))
        assert max(len(cs) for cs in tree.children.values()) <= 2

    def test_caterpillar_has_spine_and_legs(self):
        tree = random_tree(GeneratorConfig(n=30, seed=6, shape="caterpillar"))
        dec = decompose(tree)
        assert len(dec.cd) > 1  # legs create junctions below the root
        assert any(c.beta == 1 for c in dec.chains.values())
