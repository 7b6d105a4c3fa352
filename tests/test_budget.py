import random

import pytest

import interdict.solver
from interdict import (
    TargetUnreachable,
    all_upgraded_min_distance,
    build_tables,
    evaluate_min_distance,
    solve_cost,
    solve_max,
)


class TestGolden:
    def test_target_13(self, ex1):
        result = solve_cost(ex1, 13)
        assert result.kstar == 1
        assert result.solution.upgraded == {1}
        assert result.solution.value == 13

    def test_target_is_baseline(self, ex1):
        result = solve_cost(ex1, 7)
        assert result.kstar == 0
        assert result.solution.upgraded == frozenset()

    def test_target_14(self, ex1):
        result = solve_cost(ex1, 14)
        assert result.kstar == 2
        assert result.solution.value >= 14

    def test_target_zero(self, ex1):
        assert solve_cost(ex1, 0).kstar == 0

    def test_unreachable(self, ex1):
        with pytest.raises(TargetUnreachable) as err:
            solve_cost(ex1, 21)
        assert err.value.ceiling == 20
        assert "ceiling 20" in str(err.value)

    def test_ceiling_itself_reachable(self, ex1):
        result = solve_cost(ex1, 20)
        assert result.kstar == 4
        assert result.solution.value == 20

    def test_negative_target(self, ex1):
        with pytest.raises(ValueError):
            solve_cost(ex1, -3)

    def test_witness_is_solve_max_set(self, ex1):
        for target in range(0, 21):
            result = solve_cost(ex1, target)
            assert result.solution.upgraded == \
                solve_max(ex1, result.kstar).upgraded, target


class TestProfile:
    def test_full_pass_profile_is_solve_max(self, battery):
        rng = random.Random(9)
        for tree in rng.sample(battery, 40):
            cap = len(tree.non_leaves)
            profile = build_tables(tree, cap).root_best
            assert profile.tolist() == \
                [solve_max(tree, k).value for k in range(cap + 1)]

    def test_corrupted_profile_raises(self, ex1, monkeypatch):
        def corrupted(tree, budget):
            tables = build_tables(tree, budget)
            best = tables.root_best
            best[1], best[2] = best[2], best[1] - 1
            return tables

        monkeypatch.setattr(interdict.solver, "build_tables", corrupted)
        with pytest.raises(RuntimeError, match="non-decreasing"):
            solve_cost(ex1, 13)


class TestMinimality:
    def test_bracket_invariant(self, battery):
        rng = random.Random(5)
        for tree in rng.sample(battery, 40):
            f0 = evaluate_min_distance(tree, ())
            ceiling = all_upgraded_min_distance(tree)
            targets = sorted({f0, ceiling, (f0 + ceiling) // 2,
                              min(f0 + 1, ceiling)})
            for target in targets:
                result = solve_cost(tree, target)
                assert result.solution.value >= target
                assert solve_max(tree, result.kstar).value >= target
                if result.kstar > 0:
                    assert solve_max(tree, result.kstar - 1).value < target
                assert len(result.solution.upgraded) <= result.kstar
                assert result.solution.upgraded == \
                    solve_max(tree, result.kstar).upgraded

    def test_duality(self, battery):
        rng = random.Random(6)
        for tree in rng.sample(battery, 25):
            cap = len(tree.non_leaves)
            for k in range(cap + 1):
                value = solve_max(tree, k).value
                assert solve_cost(tree, value).kstar <= k
