"""Timing harness for the two solvers across instance sizes.

Each trial generates a fresh seeded instance, times one budgeted solve
(budget from the budget rule, default one tenth of n rounded up) and one
minimum-budget search (target halfway between the unupgraded optimum and
the all-upgraded ceiling). Per size, wall times aggregate to avg/max/min.
Values and budgets in the rows are seed-determined; only the ``t*`` fields
vary between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .budget import solve_cost
from .generate import GeneratorConfig, random_tree
from .solver import solve_max
from .tree import all_upgraded_min_distance, evaluate_min_distance


@dataclass(frozen=True)
class BenchRow:
    n: int
    budget: int
    values: tuple[int, ...]   # budgeted optimum per trial
    kstars: tuple[int, ...]   # minimal budget per trial
    t_max_avg: float
    t_max_max: float
    t_max_min: float
    t_cost_avg: float
    t_cost_max: float
    t_cost_min: float


def resolve_budget_rule(rule: str, n: int) -> int:
    """'n/10' (default) or a fixed integer literal."""
    if rule == "n/10":
        return math.ceil(n / 10)
    try:
        budget = int(rule)
    except ValueError:
        raise ValueError(f"unknown budget rule {rule!r}; use 'n/10' or an integer")
    if budget < 0:
        raise ValueError("budget rule must be >= 0")
    return budget


def _trial(n: int, seed: int, shape: str,
           budget_rule: str) -> tuple[int, int, float, float]:
    tree = random_tree(GeneratorConfig(n=n, seed=seed, shape=shape))
    budget = resolve_budget_rule(budget_rule, n)

    start = time.perf_counter()
    sol = solve_max(tree, budget)
    t_max = time.perf_counter() - start

    baseline = evaluate_min_distance(tree, ())
    ceiling = all_upgraded_min_distance(tree)
    target = (baseline + ceiling) // 2
    start = time.perf_counter()
    cost = solve_cost(tree, target)
    t_cost = time.perf_counter() - start
    return sol.value, cost.kstar, t_max, t_cost


def run_bench(sizes: list[int], trials: int, seed: int,
              shape: str = "uniform-attachment",
              budget_rule: str = "n/10") -> list[BenchRow]:
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    results = [_trial(n, seed + 7919 * t + n, shape, budget_rule)
               for n in sizes for t in range(trials)]

    rows = []
    for i, n in enumerate(sizes):
        chunk = results[i * trials:(i + 1) * trials]
        t_max = [r[2] for r in chunk]
        t_cost = [r[3] for r in chunk]
        rows.append(BenchRow(
            n=n,
            budget=resolve_budget_rule(budget_rule, n),
            values=tuple(r[0] for r in chunk),
            kstars=tuple(r[1] for r in chunk),
            t_max_avg=sum(t_max) / trials,
            t_max_max=max(t_max),
            t_max_min=min(t_max),
            t_cost_avg=sum(t_cost) / trials,
            t_cost_max=max(t_cost),
            t_cost_min=min(t_cost),
        ))
    return rows
