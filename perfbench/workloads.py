"""Seeded instances, workload schedules and the benchmark's own evaluator.

Instances are generated here, not by the package, so the inputs a seed
produces stay the same whatever later commits do to ``interdict.generate``.
The four shapes follow the package's shape names. Node ids are 1..n and
every parent id is smaller than its child's id, which lets
:func:`min_distance` evaluate a tree in one pass over the ids.

A workload is a list of queries, one *round*. The timed loop replays whole
rounds, so every run of a workload has the same mix of sizes whatever its
op count, and the median and tail stay comparable across runs and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

SHAPES = ("uniform-attachment", "caterpillar", "broom", "binary-ish")
W_MAX = 100
DELTA_MAX = 100

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "max-wide": "solve-max on shallow wide trees: the solver layer (serial and "
                "parallel merges, chain g-tables) dominates; parse is small",
    "max-deep": "solve-max, small budget, deep trees: per-leaf path storage "
                "(O(n*depth)) makes the tree layer dominate time and memory",
    "cost-mixed": "solve-cost on all shapes, targets from 1/4 to 9/10 of the "
                  "span: the budget layer re-runs the whole DP for ~10 probes",
    "cli-small": "sequential python -m interdict calls on small files: process "
                 "start, imports and the CLI layer dominate",
}


@dataclass
class Instance:
    """A generated tree: its text, and what the checks need to know."""

    shape: str
    n: int
    text: str
    parent: list[int]  # parent[i] for i in 2..n; entries 0 and 1 unused
    w: list[int]
    u: list[int]
    leaves: frozenset[int] = field(init=False)
    non_leaves: frozenset[int] = field(init=False)

    def __post_init__(self):
        has_child = set(self.parent[2:])
        self.non_leaves = frozenset(has_child)
        self.leaves = frozenset(range(2, self.n + 1)) - has_child

    def path_entries(self) -> int:
        """Sum of leaf depths: the size of a per-leaf path store."""
        depth = [0] * (self.n + 1)
        for i in range(2, self.n + 1):
            depth[i] = depth[self.parent[i]] + 1
        return sum(depth[v] for v in self.leaves)


@dataclass
class Query:
    """One op of a round. ``kind`` is ``max``, ``cost`` or ``verify``.

    ``tree`` groups queries on one instance, for the monotonicity check.
    """

    kind: str
    tree: int
    instance: Instance
    budget: int | None = None
    target: int | None = None
    path: str | None = None  # instance file, for CLI workloads


def _parents(shape: str, n: int, rng: random.Random) -> list[int]:
    parent = [0] * (n + 1)
    if shape == "uniform-attachment":
        for i in range(2, n + 1):
            parent[i] = rng.randrange(1, i)
    elif shape == "caterpillar":
        spine = max(2, (n + 1) // 2)
        for i in range(2, n + 1):
            parent[i] = i - 1 if i <= spine else rng.randrange(1, spine + 1)
    elif shape == "broom":
        handle = max(1, n // 2)
        for i in range(2, n + 1):
            parent[i] = i - 1 if i <= handle + 1 else handle + 1
    elif shape == "binary-ish":
        open_slots = [1]
        kids = [0] * (n + 1)
        for i in range(2, n + 1):
            idx = rng.randrange(len(open_slots))
            p = open_slots[idx]
            parent[i] = p
            kids[p] += 1
            if kids[p] == 2:
                open_slots[idx] = open_slots[-1]
                open_slots.pop()
            open_slots.append(i)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return parent


def make_instance(shape: str, n: int, seed: int) -> Instance:
    rng = random.Random(seed)
    parent = _parents(shape, n, rng)
    w = [0] * (n + 1)
    u = [0] * (n + 1)
    lines = [f"{n} 1"]
    for i in range(2, n + 1):
        w[i] = rng.randint(0, W_MAX)
        u[i] = w[i] + rng.randint(0, DELTA_MAX)
        lines.append(f"{i} {parent[i]} {w[i]} {u[i]}")
    return Instance(shape, n, "\n".join(lines) + "\n", parent, w, u)


def min_distance(inst: Instance, upgraded) -> int:
    """Minimum root-leaf distance with ``upgraded`` applied, in exact ints."""
    s = set(upgraded)
    dist = [0] * (inst.n + 1)
    for i in range(2, inst.n + 1):
        p = inst.parent[i]
        dist[i] = dist[p] + (inst.u[i] if p in s else inst.w[i])
    return min(dist[v] for v in inst.leaves)


def target_at(inst: Instance, frac: Fraction) -> int:
    """Target at ``frac`` of the span from the unupgraded optimum to the ceiling."""
    base = min_distance(inst, ())
    ceiling = min_distance(inst, inst.non_leaves)
    return base + (ceiling - base) * frac.numerator // frac.denominator


FRACTIONS = (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))


def _seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


ORACLE_LIMIT = 25  # the package's brute-force guard on non-leaf nodes


def _oracle_sized(shape: str, seed: int, index: int) -> Instance:
    """A 40-node tree the oracle accepts; the first fitting sub-seed wins."""
    for attempt in range(100):
        inst = make_instance(shape, 40, _seed(seed, index) + 7919 * attempt)
        if len(inst.non_leaves) <= ORACLE_LIMIT:
            return inst
    raise RuntimeError(f"no {shape} tree within the oracle limit")


def schedule(workload: str, seed: int) -> list[Query]:
    """The round of ``workload`` for ``seed``: same seed, same queries."""
    queries: list[Query] = []

    def add_tree(shape, n, index):
        return make_instance(shape, n, _seed(seed, index))

    if workload == "max-wide":
        # Sizes spread evenly, so the median op sits inside a dense run of
        # op times rather than in a gap between size classes.
        shapes = ("uniform-attachment", "binary-ish")
        for t, n in enumerate(range(2000, 4001, 500)):
            inst = add_tree(shapes[t % 2], n, t)
            for div in (20, 10, 5):
                queries.append(Query("max", t, inst, budget=n // div))
    elif workload == "max-deep":
        shapes = ("caterpillar", "broom")
        for t, n in enumerate(range(2000, 4001, 250)):
            inst = add_tree(shapes[t % 2], n, t)
            queries.append(Query("max", t, inst, budget=n // 100))
    elif workload == "cost-mixed":
        # Five sizes, so the median op falls inside one tree's ops; the
        # three targets on one tree let reuse across calls show.
        for t, n in enumerate(range(700, 1101, 100)):
            inst = add_tree(SHAPES[t % len(SHAPES)], n, t)
            for frac in FRACTIONS:
                queries.append(Query("cost", t, inst,
                                     target=target_at(inst, frac)))
    elif workload == "cli-small":
        for t, shape in enumerate(SHAPES):
            big = add_tree(shape, 300, 3 * t)
            mid = add_tree(shape, 120, 3 * t + 1)
            small = _oracle_sized(shape, seed, 3 * t + 2)
            queries.append(Query("max", 3 * t, big, budget=30))
            queries.append(Query("cost", 3 * t + 1, mid,
                                 target=target_at(mid, Fraction(1, 2))))
            queries.append(Query("verify", 3 * t + 2, small, budget=3))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries


WORKLOADS = tuple(WHY)
