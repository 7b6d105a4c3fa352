"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (visible with ``pytest -s``).

Criteria:
  1. golden-instance regression (chain tables, merged-table cells, optimum)
  2. solver equals the brute-force oracle on a 500+ tree battery, all budgets
  3. minimum-budget search is minimal and matches the oracle on sampled targets
  4. budget monotonicity and the all-upgraded ceiling on mid-size trees
  5. solve_max time grows with n over seeded trees of 100 to 3000 nodes
     (timings hardware-bound) and one table pass per minimum-budget query
  6. byte-identical structured CLI output for fixed seeds
"""

import gc
import math
import time

import numpy as np
import pytest

import interdict.budget
import interdict.solver
from interdict import (
    GeneratorConfig,
    TargetUnreachable,
    all_upgraded_min_distance,
    brute_force_cost,
    brute_force_max,
    build_tables,
    evaluate_min_distance,
    random_tree,
    solve_cost,
    solve_max,
)
from interdict.chains import chain_g_table
from interdict.solver import TableSlice, combine_parallel, combine_serial
from interdict.cli import main as cli_main

# chain bottom -> {(eps, k): value}: full expected chain tables of the
# golden instance
GOLDEN_CHAIN_CELLS = {
    3: {(0, 0): 7, (1, 1): 10},
    4: {(0, 0): 4, (1, 1): 10},
    2: {(0, 0): 6, (1, 1): 10},
    6: {(0, 0): 9, (0, 1): 11, (1, 1): 18, (1, 2): 20},
    8: {(0, 0): 3, (1, 1): 10},
    10: {(0, 0): 9, (0, 1): 14, (1, 1): 15, (1, 2): 20},
    7: {(0, 0): 4, (1, 1): 10},
}

_oracle_cache: dict[int, list[int]] = {}


def _oracle_profile(index, tree):
    profile = _oracle_cache.get(index)
    if profile is None:
        profile = [brute_force_max(tree, k)[0]
                   for k in range(len(tree.non_leaves) + 1)]
        _oracle_cache[index] = profile
    return profile


def _report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {elapsed:.2f}s)")


def test_criterion_1_golden_regression(ex1):
    start = time.perf_counter()

    tables = build_tables(ex1, budget=1)
    dec = tables.decomposition

    checked = 0
    for bottom, cells in GOLDEN_CHAIN_CELLS.items():
        table = chain_g_table(dec.chains[bottom], budget=5)
        for (eps, k), value in cells.items():
            assert (table.g0[k] if eps == 0 else table.g1[k - 1]) == value, \
                (bottom, eps, k)
            checked += 1
    assert checked == 18

    # Merged tables at budget 1, rebuilt from their golden operands (the
    # solve keeps only backpointers): f0 = (f(0, 0), f(0, 1)), f1 = (f(1, 1),)
    def rows(sl):
        return sl.f0.tolist(), sl.f1.tolist()

    def g_rows(bottom):  # a chain ending in a leaf: its rows are its g-rows
        table = chain_g_table(dec.chains[bottom], 1)
        return TableSlice(table.g0, table.g1)

    # full subtree under the deeper junction with two leaf branches: chain
    # 10's g-rows merged into leaf edge 8's rows [3] and [10]
    sl = combine_parallel(g_rows(10), TableSlice(np.array([3]),
                                                 np.array([10])), 1)
    assert rows(sl) == ([3, 3], [10])

    # the root branch through node 2 (chain plus inner junction, whose
    # subtree row is [4, 10])
    s2 = combine_serial(chain_g_table(dec.chains[2], 1), np.array([4, 10]), 1)
    assert rows(s2) == ([10, 16], [14])

    # the full tree table at the root, and the root row of the solve
    s7 = combine_serial(chain_g_table(dec.chains[7], 1), np.array([3, 10]), 1)
    s6 = g_rows(6)
    sl = combine_parallel(s7, combine_parallel(s6, s2, 1), 1)
    assert sl.f0[1] == 9 and sl.f1[0] == 13
    assert tables.root_best.tolist() == [7, 13]

    # Cross-check of one intermediate combination: min-combining the branch
    # through node 7 with the chain to node 6, one upgrade, junction not
    # upgraded, must give 9 (not 7; nothing smaller is consistent with the
    # two branch slices above).
    combos = [min(s6.f0[k1], s7.f0[1 - k1]) for k1 in (0, 1)]
    assert max(combos) == 9

    sol = solve_max(ex1, 1)
    assert sol.value == 13
    assert sol.upgraded == frozenset({1})

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "18 chain cells + merged tables + optimum 13@{1}", elapsed)


def test_criterion_2_oracle_equivalence(battery):
    start = time.perf_counter()
    assert len(battery) >= 500
    mismatches = 0
    solves = 0
    for index, tree in enumerate(battery):
        profile = _oracle_profile(index, tree)
        for budget, expected in enumerate(profile):
            sol = solve_max(tree, budget)
            solves += 1
            ok = (sol.value == expected
                  and len(sol.upgraded) <= budget
                  and not (sol.upgraded & tree.leaves)
                  and evaluate_min_distance(tree, sol.upgraded) == sol.value)
            if not ok:
                mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"{len(battery)} trees, {solves} budgeted solves, 0 mismatches",
            elapsed)


def test_criterion_3_minimum_budget_minimality(battery):
    start = time.perf_counter()
    queries = 0
    for index, tree in enumerate(battery):
        profile = _oracle_profile(index, tree)
        baseline, ceiling = profile[0], profile[-1]
        assert ceiling == all_upgraded_min_distance(tree)
        targets = sorted({int(d) for d in
                          np.linspace(baseline, ceiling, num=10).round()})
        for target in targets:
            result = solve_cost(tree, target)
            kstar = result.kstar
            oracle_kstar = next(k for k, v in enumerate(profile) if v >= target)
            assert kstar == oracle_kstar, (index, target)
            assert result.solution.value >= target
            assert profile[kstar] >= target
            assert kstar == 0 or profile[kstar - 1] < target
            queries += 1
        if index % 25 == 0:
            assert brute_force_cost(tree, targets[-1]) == \
                solve_cost(tree, targets[-1]).kstar
        if index % 10 == 0:
            with pytest.raises(TargetUnreachable):
                solve_cost(tree, ceiling + 1)
            with pytest.raises(TargetUnreachable):
                brute_force_cost(tree, ceiling + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"{queries} targets, minimality and oracle agreement exact",
            elapsed)


def test_criterion_4_monotonicity_and_ceiling():
    start = time.perf_counter()
    shapes = ("uniform-attachment", "caterpillar", "broom", "binary-ish")
    trees = [random_tree(GeneratorConfig(
        n=20 + (i * 180) // 49, seed=4200 + i, shape=shapes[i % 4],
        w_max=50, delta_max=50)) for i in range(50)]
    for tree in trees:
        assert tree.node_count <= 200
        cap = len(tree.non_leaves)
        values = [solve_max(tree, k).value for k in range(cap + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == all_upgraded_min_distance(tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "50 trees, non-decreasing budgets, ceiling reached", elapsed)


def test_criterion_5_scaling_shape(monkeypatch):
    start = time.perf_counter()
    sizes = [100, 500, 1000, 2000, 3000]
    trials = 3
    averages = []
    for n in sizes:
        budget = math.ceil(n / 10)
        times = []
        for t in range(trials):
            tree = random_tree(GeneratorConfig(n=n,
                                               seed=20260810 + 7919 * t + n))
            times.append(_time_solve_max(tree, budget))
        assert max(times) < 120.0
        assert _solve_cost_passes(monkeypatch, n) == (1, 0)
        averages.append(sum(times) / trials)
        print(f"  n={n:5d} budget={budget:4d} t_avg={averages[-1]:.4f}s "
              f"t_max={max(times):.4f}s t_min={min(times):.4f}s")
    assert averages == sorted(averages), "solve time must grow with n"
    elapsed = time.perf_counter() - start
    _report(5, "5 sizes x 3 trials, solve time grows with n, solve-cost "
               "is one table pass at every size", elapsed)


def _time_solve_max(tree, budget):
    """Wall time of one solve with the garbage collector paused, as timeit
    does: a collection of the objects earlier tests left behind takes longer
    than a small solve and would be charged to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        solve_max(tree, budget)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _solve_cost_passes(monkeypatch, n):
    """(build_tables calls, solve_max calls) made by one solve_cost query
    on a seeded tree of size ``n``; every route to the DP is counted."""
    calls = {"build_tables": 0, "solve_max": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    count_tables = counting("build_tables", interdict.solver.build_tables)
    count_max = counting("solve_max", interdict.solver.solve_max)
    with monkeypatch.context() as m:
        for module in (interdict.solver, interdict.budget):
            m.setattr(module, "build_tables", count_tables, raising=False)
            m.setattr(module, "solve_max", count_max, raising=False)
        tree = random_tree(GeneratorConfig(n=n, seed=20260810 + n))
        target = (evaluate_min_distance(tree, ())
                  + all_upgraded_min_distance(tree)) // 2
        solve_cost(tree, target)
    return calls["build_tables"], calls["solve_max"]


def test_criterion_6_determinism(tmp_path, capsys):
    start = time.perf_counter()

    instance = tmp_path / "det.txt"
    assert cli_main(["gen", "--nodes", "12", "--seed", "7",
                     "-o", str(instance)]) == 0
    capsys.readouterr()

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    commands = [
        ["solve-max", str(instance), "--budget", "2"],
        ["solve-max", str(instance), "--budget", "2", "--format", "json"],
        ["solve-cost", str(instance), "--target", "43"],
        ["solve-cost", str(instance), "--target", "43", "--format", "json"],
        ["verify", str(instance), "--budget", "2", "--format", "json"],
        ["inspect", str(instance), "--format", "json"],
        ["gen", "--nodes", "30", "--seed", "3", "--shape", "broom"],
    ]
    for argv in commands:
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        assert code_a == code_b == 0, argv
        assert out_a == out_b, argv
        assert out_a

    file_a, file_b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["gen", "--nodes", "50", "--seed", "11", "-o", str(file_a)])
    run(["gen", "--nodes", "50", "--seed", "11", "-o", str(file_b)])
    assert file_a.read_bytes() == file_b.read_bytes()

    elapsed = time.perf_counter() - start
    _report(6, "repeated runs byte-identical", elapsed)
