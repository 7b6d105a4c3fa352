import random

import pytest
from hypothesis import strategies as st

from interdict import SHAPES, GeneratorConfig, build_tree, random_tree

# Number tokens of every form the parser and ``--target`` accept or must
# reject, for the fuzz tests.
NUMBER_TOKENS = st.one_of(
    st.integers(-30, 30).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.from_regex(r"[-+]?\d{0,3}(\.\d{0,3})?([eE][-+]?\d{1,5})?",
                  fullmatch=True),
    st.from_regex(r"[-+]?\d{1,3}/[-+]?\d{1,3}", fullmatch=True),
    st.sampled_from(["nan", "-inf", "1_0", "0x1", "1e4299", "1e4300",
                     "1e-4299", "1e99999999", "1/0", "9" * 4400, "\u00bd",
                     "\u0661\u0662"]),
)

# Ten-node golden instance: all upgraded lengths are 10. Optimum at budget 1
# is 13, achieved by upgrading the root.
EX1_RECORDS = [
    (2, 1, 6, 10),
    (3, 2, 7, 10),
    (4, 2, 4, 10),
    (5, 1, 1, 10),
    (6, 5, 8, 10),
    (7, 1, 4, 10),
    (8, 7, 3, 10),
    (9, 7, 4, 10),
    (10, 9, 5, 10),
]


@pytest.fixture(scope="session")
def ex1():
    return build_tree(EX1_RECORDS, root=1)


def make_path(n, seed, w_max=6, delta_max=6):
    rng = random.Random(seed)
    records = [(i, i - 1, rng.randint(0, w_max),
                rng.randint(0, w_max) + rng.randint(0, delta_max))
               for i in range(2, n + 1)]
    records = [(c, p, min(w, u), max(w, u)) for c, p, w, u in records]
    return build_tree(records, root=1)


def make_star(n, seed, w_max=6, delta_max=6):
    rng = random.Random(seed)
    records = []
    for i in range(2, n + 1):
        w = rng.randint(0, w_max)
        records.append((i, 1, w, w + rng.randint(0, delta_max)))
    return build_tree(records, root=1)


def make_spider(legs, seed=None, w_max=2, delta_max=2, leg_edges=(2,)):
    """A root with ``legs`` paths down to leaves, each of a length drawn
    from ``leg_edges``; legs of one edge are leaf edges. With no ``seed``
    every leg has two edges with w = 1 and u = 2."""
    rng = random.Random(seed)
    records, node = [], 2
    for _ in range(legs):
        parent = 1
        for _ in range(rng.choice(leg_edges)):
            if seed is None:
                w, u = 1, 2
            else:
                w = rng.randint(0, w_max)
                u = w + rng.randint(0, delta_max)
            records.append((node, parent, w, u))
            parent, node = node, node + 1
    return build_tree(records, root=1)


def small_battery(min_trees=500, n_max=12, reps=12):
    """Seeded tree battery covering all generator shapes plus explicit
    paths and stars; weight ranges rotate to exercise ties, zero weights
    and u == w instances."""
    ranges = [(5, 5), (8, 3), (0, 7), (6, 0)]
    trees = []
    for n in range(2, n_max + 1):
        for shape in SHAPES:
            for rep in range(reps):
                w_max, delta_max = ranges[rep % len(ranges)]
                cfg = GeneratorConfig(
                    n=n, seed=100000 + 997 * n + 131 * rep + SHAPES.index(shape),
                    w_max=w_max, delta_max=delta_max, shape=shape)
                trees.append(random_tree(cfg))
        trees.append(make_path(n, seed=500 + n))
        if n >= 3:
            trees.append(make_star(n, seed=900 + n))
    assert len(trees) >= min_trees
    return trees


@pytest.fixture(scope="session")
def battery():
    return small_battery()
