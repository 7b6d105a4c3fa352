import math

import pytest

from interdict import (
    SHAPES,
    GeneratorConfig,
    TargetUnreachable,
    TooLargeForOracle,
    all_upgraded_min_distance,
    brute_force_cost,
    brute_force_max,
    evaluate_min_distance,
    random_tree,
    solve_cost,
    solve_max,
)
import interdict.oracle
from interdict.oracle import reference_profile
from conftest import make_spider, make_star


def _count_evaluations(monkeypatch):
    """Record every evaluator call the oracle makes; returns the record."""
    calls = []
    evaluate = interdict.oracle.evaluate_min_distance

    def counting(tree, upgraded):
        calls.append(upgraded)
        return evaluate(tree, upgraded)

    monkeypatch.setattr(interdict.oracle, "evaluate_min_distance", counting)
    return calls


class TestBruteForceMax:
    def test_golden_budget_one(self, ex1):
        assert brute_force_max(ex1, 1) == (13, frozenset({1}))

    def test_budget_zero(self, ex1):
        value, chosen = brute_force_max(ex1, 0)
        assert value == evaluate_min_distance(ex1, ()) == 7
        assert chosen == frozenset()

    def test_budget_five_hits_ceiling_with_smaller_set(self, ex1):
        value, chosen = brute_force_max(ex1, 5)
        assert value == all_upgraded_min_distance(ex1) == 20
        assert len(chosen) == 4  # smallest-|S| tie break
        assert evaluate_min_distance(ex1, chosen) == 20

    def test_ties_prefer_lexicographic(self):
        tree = make_star(4, seed=0, w_max=0, delta_max=0)  # all sets tie at 0
        _, chosen = brute_force_max(tree, 1)
        assert chosen == frozenset()  # size tie resolved to the empty set

    def test_guard(self):
        tree = random_tree(GeneratorConfig(n=80, seed=1, shape="caterpillar"))
        assert len(tree.non_leaves) > 25
        with pytest.raises(TooLargeForOracle):
            brute_force_max(tree, 2)

    def test_stops_at_first_ceiling_set(self, ex1, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        assert brute_force_max(ex1, 5) == (20, frozenset({1, 2, 5, 7}))
        # 26 sets of size <= 3, then the first 4-set, which reaches 20.
        assert len(calls) == 27


class TestBruteForceCost:
    def test_golden_targets(self, ex1):
        assert brute_force_cost(ex1, 13) == 1
        assert brute_force_cost(ex1, 0) == 0
        assert brute_force_cost(ex1, 20) == 4

    def test_unreachable(self, ex1):
        with pytest.raises(TargetUnreachable):
            brute_force_cost(ex1, 21)

    def test_size_check_before_unreachable(self):
        tree = random_tree(GeneratorConfig(n=80, seed=1, shape="caterpillar"))
        with pytest.raises(TooLargeForOracle):
            brute_force_cost(tree, all_upgraded_min_distance(tree) + 1)

    def test_enumerates_once(self, ex1, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        assert brute_force_cost(ex1, 20) == 4
        # At most every set of size <= 4 among ex1's 5 non-leaves, once each.
        assert len(calls) <= sum(math.comb(5, s) for s in range(5))

    def test_self_consistency(self, battery):
        for tree in battery[::40]:
            for budget in range(min(3, len(tree.non_leaves)) + 1):
                value, _ = brute_force_max(tree, budget)
                assert brute_force_cost(tree, value) <= budget


class TestReferenceProfile:
    """The node-level reference DP against brute force on small trees, and
    the solver against it on trees far past the brute-force limit."""

    def test_matches_brute_force(self, battery):
        for tree in battery[::7]:
            profile = reference_profile(tree)
            assert profile == [brute_force_max(tree, k)[0]
                               for k in range(len(tree.non_leaves) + 1)]

    def test_budget_truncates(self, ex1):
        assert reference_profile(ex1) == [7, 13, 14, 18, 20, 20]
        assert reference_profile(ex1, 2) == [7, 13, 14]
        assert reference_profile(ex1, 0) == [7]
        assert reference_profile(ex1, 99) == reference_profile(ex1)
        with pytest.raises(ValueError):
            reference_profile(ex1, -1)

    @pytest.mark.parametrize("n", [300, 1000, 2000])
    def test_solver_matches_on_large_trees(self, n):
        trees = [random_tree(GeneratorConfig(n=n, seed=n + w_max, w_max=w_max,
                                             delta_max=w_max, shape=shape))
                 for shape in SHAPES for w_max in (100, 3)]
        trees += [make_spider(n // 4, seed=n, leg_edges=(1, 2, 2, 3)),
                  make_spider(n // 4, seed=n + 1, w_max=100, delta_max=100)]
        checks = 0
        for tree in trees:
            profile = reference_profile(tree)
            cap = len(profile) - 1
            for k in sorted({1, cap // 10, cap // 2}):
                assert solve_max(tree, k).value == profile[k], (n, k)
                checks += 1
            for target in sorted({min(profile[0] + 1, profile[-1]),
                                  (profile[0] + profile[-1]) // 2,
                                  profile[-1]}):
                kstar = next(k for k, v in enumerate(profile) if v >= target)
                assert solve_cost(tree, target).kstar == kstar, (n, target)
                checks += 1
        assert checks >= 50
