from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdict import (
    InstanceError,
    build_tables,
    build_tree,
)
from interdict.solver import chain_g_table, decompose


def path_chain(weights):
    """Build a path tree from (w, u) pairs; its single chain starts at the root."""
    records = [(i + 2, i + 1, w, u) for i, (w, u) in enumerate(weights)]
    tree = build_tree(records, root=1)
    dec = decompose(tree)
    (chain,) = dec.chains.values()
    return tree, chain


def g(table, eps, k):
    """g(eps, k) read from the table's rows."""
    return int(table.g0[k] if eps == 0 else table.g1[k - 1])


def brute_chain_value(tree, chain, eps, k):
    """Max chain length over every way to put k upgrades on chain nodes with
    the top's membership fixed by eps. Nodes upgrade their child edge."""
    edge_by_parent = {tree.parent[e]: e for e in tree.parent}
    interiors = [v for v in edge_by_parent if v != chain.top]
    best = None
    need = k - eps
    for chosen in combinations(interiors, need):
        nodes = set(chosen) | ({chain.top} if eps else set())
        total = sum(
            tree.u[e] if tree.parent[e] in nodes else tree.w[e]
            for e in tree.parent)
        best = total if best is None else max(best, total)
    return best


class TestGoldenTables:
    """All g-values of the ten-node golden instance's seven chains."""

    EXPECTED = {
        3: {(0, 0): 7, (1, 1): 10},
        4: {(0, 0): 4, (1, 1): 10},
        2: {(0, 0): 6, (1, 1): 10},
        6: {(0, 0): 9, (0, 1): 11, (1, 1): 18, (1, 2): 20},
        8: {(0, 0): 3, (1, 1): 10},
        10: {(0, 0): 9, (0, 1): 14, (1, 1): 15, (1, 2): 20},
        7: {(0, 0): 4, (1, 1): 10},
    }
    EXPECTED_SETS = {
        (3, 1, 1): {2}, (4, 1, 1): {2}, (2, 1, 1): {1},
        (6, 0, 1): {5}, (6, 1, 1): {1}, (6, 1, 2): {1, 5},
        (8, 1, 1): {7},
        (10, 0, 1): {9}, (10, 1, 1): {7}, (10, 1, 2): {7, 9},
        (7, 1, 1): {1},
    }

    def test_all_entries(self, ex1):
        dec = decompose(ex1)
        for bottom, cells in self.EXPECTED.items():
            table = chain_g_table(dec.chains[bottom], budget=5)
            for (eps, k), value in cells.items():
                assert g(table, eps, k) == value, (bottom, eps, k)

    def test_upgrade_sets(self, ex1):
        dec = decompose(ex1)
        for (bottom, eps, k), nodes in self.EXPECTED_SETS.items():
            assert dec.chains[bottom].upgrade_set(eps, k) == nodes


class TestDomain:
    def test_budget_zero(self, ex1):
        dec = decompose(ex1)
        for chain in dec.chains.values():
            table = chain_g_table(chain, budget=0)
            assert table.g0.tolist() == [chain.w_sum]
            assert chain.upgrade_set(0, 0) == frozenset()
            assert len(table.g1) == 0

    def test_single_edge_chain(self):
        _, chain = path_chain([(5, 7)])
        table = chain_g_table(chain, budget=3)
        assert len(table.g0) == 1  # no tail edge to upgrade
        assert table.g1.tolist() == [7]

    def test_infeasible_queries_raise(self):
        _, chain = path_chain([(1, 2), (1, 3)])
        table = chain_g_table(chain, budget=5)
        assert (len(table.g0), len(table.g1)) == (2, 2)
        for eps, k in [(0, 2), (0, -1), (1, 0), (1, 3), (2, 0)]:
            with pytest.raises(ValueError, match="infeasible chain cell"):
                chain.upgrade_set(eps, k)

    def test_budget_clamps_rows(self):
        _, chain = path_chain([(1, 5), (1, 4), (1, 3), (1, 2)])
        table = chain_g_table(chain, budget=2)
        assert len(table.g0) == 3 and len(table.g1) == 2

    @pytest.mark.parametrize("weights", [[(5, 7)], [(1, 5), (1, 4), (1, 3)]])
    def test_rows_are_int64(self, weights):
        # Without a tail and with one.
        _, chain = path_chain(weights)
        table = chain_g_table(chain, budget=3)
        assert table.g0.dtype == table.g1.dtype == np.int64

    def test_length_past_int64_raises(self):
        # The last g(0, k) cell is 2**63, one past the int64 range.
        # chain_g_table trusts its operands: build_tables' gate on the
        # longest all-upgraded root-leaf path rejects the chain first.
        x = 2**62
        tree, _ = path_chain([(0, 1), (0, x), (0, x)])
        with pytest.raises(InstanceError, match=(
                r"^longest all-upgraded root-leaf path 9223372036854775809 "
                r"is above the int64 table limit 9223372036854775807$")):
            build_tables(tree, 5)


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_exchange_optimality(self, pairs):
        weights = [(w, w + d) for w, d in pairs]
        tree, chain = path_chain(weights)
        table = chain_g_table(chain, budget=len(weights))
        for eps, row in ((0, table.g0), (1, table.g1)):
            for k, value in enumerate(row.tolist(), start=eps):
                assert value == brute_chain_value(tree, chain, eps, k)
                realized = chain.upgrade_set(eps, k)
                assert len(realized) == k

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_concave_increments(self, pairs):
        weights = [(w, w + d) for w, d in pairs]
        _, chain = path_chain(weights)
        table = chain_g_table(chain, budget=len(weights))
        for row in (table.g0, table.g1):
            diffs = [int(b) - int(a) for a, b in zip(row, row[1:])]
            assert all(d >= 0 for d in diffs)
            assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_top_upgrade_can_lose_to_interior(self):
        # small head gain, large tail gain: upgrading the top is not always
        # the best single upgrade
        _, chain = path_chain([(3, 4), (2, 11)])
        table = chain_g_table(chain, budget=2)
        assert g(table, 1, 1) < g(table, 0, 1)
