import dataclasses
import hashlib
import itertools
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdict import (
    SHAPES,
    GeneratorConfig,
    InstanceError,
    all_upgraded_min_distance,
    brute_force_cost,
    brute_force_max,
    build_tables,
    build_tree,
    evaluate_min_distance,
    random_tree,
    solve_cost,
    solve_max,
)
from interdict import solver
from interdict.solver import (Chain, DpTables, _convolve, chain_g_table,
                              decompose)

from conftest import make_spider

INT64_MAX = 2**63 - 1
EDGE_WEIGHTS = (0, 1, 3, 2**40, 2**61 - 1)


def cell(sl, eps, k):
    """Value of cell ``(eps, k)`` of a merged slice, or None where the cell
    is infeasible."""
    row, i = (sl.f0, k) if eps == 0 else (sl.f1, k - 1)
    return int(row[i]) if 0 <= i < len(row) else None


def golden_branches(ex1):
    """The root's branches of the golden instance at budget 1, merged from
    their operands. The subtree rows under junctions 2 and 7 are [4, 10]
    and [3, 10] (checked in TestTables)."""
    chains = decompose(ex1).chains
    return {
        2: solver.combine_serial(chain_g_table(chains[2], 1),
                                 np.array([4, 10]), 1),
        6: leaf_chain_slice(chain_g_table(chains[6], 1)),
        7: solver.combine_serial(chain_g_table(chains[7], 1),
                                 np.array([3, 10]), 1),
    }


def junction_subtree(tree, v):
    """The subtree hanging at ``v``, as a tree rooted at ``v``."""
    inside, records = {v}, []
    for c in tree.bfs_order:  # parents come before their children
        if tree.parent.get(c) in inside:
            inside.add(c)
            records.append((c, tree.parent[c], tree.w[c], tree.u[c]))
    return build_tree(records, root=v)


def exact_best(tree, eps, k):
    """Best value with exactly ``k`` upgrades, the root among them iff
    ``eps``; None where no such set exists."""
    if k < eps:
        return None
    top = (tree.root,) if eps else ()
    others = sorted(v for v in tree.non_leaves if v != tree.root)
    return max((evaluate_min_distance(tree, top + rest)
                for rest in itertools.combinations(others, k - eps)),
               default=None)


def leaf_edge_slice(w, u):
    """A one-edge chain down to a leaf: rows [w] and [u]."""
    return solver.TableSlice(np.array([w]), np.array([u]))


def leaf_chain_slice(table):
    """A chain ending in a leaf: its g-rows are its branch rows."""
    return solver.TableSlice(table.g0, table.g1)


class TestTables:
    """Slice values of the golden instance, checked cell by cell."""

    def test_serial_branch_under_root_via_v7(self, ex1):
        sl = golden_branches(ex1)[7]
        assert cell(sl, 0, 0) == 7
        assert cell(sl, 0, 1) == 14
        assert cell(sl, 1, 1) == 13

    def test_serial_branch_under_root_via_v2(self, ex1):
        sl = golden_branches(ex1)[2]
        assert cell(sl, 0, 0) == 10
        assert cell(sl, 0, 1) == 16
        assert cell(sl, 1, 1) == 14

    def test_serial_branch_under_root_via_v6(self, ex1):
        sl = golden_branches(ex1)[6]
        assert (cell(sl, 0, 0), cell(sl, 0, 1), cell(sl, 1, 1)) == (9, 11, 18)

    def test_parallel_full_subtree_v7(self, ex1):
        # Leaf edge 8's rows [3] and [10] merged with chain 10's g-rows.
        g10 = chain_g_table(decompose(ex1).chains[10], 1)
        sl = solver.combine_parallel([leaf_edge_slice(3, 10),
                                      leaf_chain_slice(g10)], 1)
        assert cell(sl, 0, 0) == 3
        assert cell(sl, 0, 1) == 3
        assert cell(sl, 1, 1) == 10
        tables = build_tables(junction_subtree(ex1, 7), 1)
        assert tables.root_best.tolist() == [3, 10]
        assert tables.junctions[7][0].tolist() == [0, 1]

    def test_parallel_full_subtree_v2(self, ex1):
        # Two leaf edges: the second caps the first's rows.
        tables = build_tables(junction_subtree(ex1, 2), 1)
        assert tables.root_best.tolist() == [4, 10]
        assert tables.junctions[2][0].tolist() == [0, 1]

    def test_parallel_full_tree(self, ex1):
        branches = golden_branches(ex1)
        sl = solver.combine_parallel([branches[2], branches[6], branches[7]],
                                     1)
        assert cell(sl, 0, 0) == 7
        assert cell(sl, 0, 1) == 9
        assert cell(sl, 1, 1) == 13
        tables = build_tables(ex1, budget=1)
        assert tables.root_best.tolist() == [7, 13]
        assert tables.junctions[1][0].tolist() == [0, 1]

    def test_best_is_max_over_eps(self, ex1):
        tables = build_tables(ex1, budget=3)
        for v in decompose(ex1).order:
            sub = junction_subtree(ex1, v)
            best = build_tables(sub, 3).root_best
            for k in range(len(best)):
                cells = [exact_best(sub, eps, k) for eps in (0, 1)]
                assert best[k] == max(c for c in cells if c is not None)
                assert tables.junctions[v][0][k] == int(cells[0] != best[k])

    def test_one_record_per_junction(self, ex1):
        # Junctions 2 and 7 have leaf edges (3, 4 and 8), which no record
        # holds; every record chain hangs from its junction.
        tables = build_tables(ex1, budget=1)
        assert [f.name for f in dataclasses.fields(DpTables)] == [
            "tree", "junctions", "root_best"]
        assert sorted(tables.junctions) == sorted(decompose(ex1).order)
        for v, (_, chains, *_) in tables.junctions.items():
            for chain in chains:
                assert chain.top == v
                assert not (chain.beta == 1 and chain.bottom in ex1.leaves)

    def test_leaf_bottom_branch_budget_zero(self, ex1):
        # Branch 8 under junction 7 is a leaf edge; alone it is a whole
        # tree, whose row holds f(0, 0) and no f(1, 1) at budget 0.
        edge = build_tree([(8, 7, ex1.w[8], ex1.u[8])], root=7)
        assert build_tables(edge, 0).root_best.tolist() == [3]

    def test_infeasible_cells_absent(self, ex1):
        g10 = chain_g_table(decompose(ex1).chains[10], 1)
        sl = solver.combine_parallel([leaf_edge_slice(3, 10),
                                      leaf_chain_slice(g10)], 1)
        assert cell(sl, 1, 0) is None
        assert cell(sl, 0, 5) is None


class TestSolve:
    def test_golden_budget_one(self, ex1):
        sol = solve_max(ex1, 1)
        assert sol.value == 13
        assert sol.upgraded == {1}

    def test_budget_zero(self, ex1):
        sol = solve_max(ex1, 0)
        assert sol.value == 7 and sol.upgraded == frozenset()

    def test_budget_two(self, ex1):
        sol = solve_max(ex1, 2)
        assert sol.value == 14
        assert evaluate_min_distance(ex1, sol.upgraded) == 14

    def test_single_edge(self):
        tree = build_tree([(2, 1, 5, 7)], root=1)
        sol = solve_max(tree, 1)
        assert sol.value == 7 and sol.upgraded == {1}

    def test_budget_clamped_to_non_leaf_count(self, ex1):
        sol = solve_max(ex1, 100)
        assert sol.value == all_upgraded_min_distance(ex1) == 20
        assert len(sol.upgraded) == len(ex1.non_leaves)

    def test_negative_budget(self, ex1):
        with pytest.raises(ValueError):
            solve_max(ex1, -1)

    def test_applied_weights_consistent(self, ex1):
        sol = solve_max(ex1, 1)
        for edge, parent in ex1.parent.items():
            expected = ex1.u[edge] if parent in sol.upgraded else ex1.w[edge]
            assert sol.applied_weights[edge] == expected
        assert sorted(sol.applied_weights) == sorted(ex1.parent)
        assert len(sol.applied_weights) == len(ex1.parent)

    def test_deterministic_sets(self, ex1):
        reference = solve_max(ex1, 2)
        for _ in range(5):
            again = solve_max(ex1, 2)
            assert again.value == reference.value
            assert again.upgraded == reference.upgraded


class TestInt64Range:
    def test_path_of_two_pow_63_rejected(self):
        tree = build_tree([(i, i - 1, 2**61, 2**61) for i in range(2, 6)], 1)
        assert evaluate_min_distance(tree, ()) == 2**63
        with pytest.raises(InstanceError, match="int64"):
            solve_max(tree, 1)

    def test_upgraded_length_past_int64_rejected(self):
        # Base lengths fit; only the upgraded path leaves the range.
        tree = build_tree([(2, 1, 0, 2**63)], 1)
        with pytest.raises(InstanceError):
            build_tables(tree, 0)

    def test_path_past_str_digit_limit_rejected(self):
        # The length has more digits than Python will print.
        tree = build_tree([(2, 1, 10**4300, 10**4300)], 1)
        with pytest.raises(InstanceError,
                           match="path of 4301 digits is above the int64"):
            build_tables(tree, 1)

    def test_largest_int64_path_solved_exactly(self):
        top = 2**62
        tree = build_tree([(2, 1, 0, top), (3, 2, 0, top - 1)], 1)
        sol = solve_max(tree, 2)
        assert sol.value == 2**63 - 1 and sol.upgraded == {1, 2}


class TestRetainedMemory:
    """A solve keeps backpointers, eps rows, the root row and the eps=0
    rows of branches that merge at a junction, not merged values."""

    def test_caterpillar_tables_stay_small(self):
        # 8.61 MiB retained and 9.60 MiB peak (Python 3.11, numpy 2.4).
        # Keeping every merge's value rows retains about 182 MB; keeping
        # each junction's row until the pass ends peaks at about 51 MB.
        tree = random_tree(GeneratorConfig(n=10_000, seed=5,
                                           shape="caterpillar"))
        tracemalloc.start()
        try:
            tables = build_tables(tree, 1000)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 12 * 2**20
        assert peak < 12 * 2**20
        assert len(tables.root_best) == 1001

    def test_forced_serial_merges_store_nothing(self):
        # The same pass: about 8.6 MiB with one backpointer array per
        # serial merge; 14.1 MB when each merge kept two arrays, and about
        # 29 MB when the one-edge chains into a junction (1949 of 3151
        # serial merges) kept backpointers too.
        tree = random_tree(GeneratorConfig(n=10_000, seed=5,
                                           shape="caterpillar"))
        tracemalloc.start()
        try:
            tables = build_tables(tree, 1000)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 12 * 2**20
        kept = [(chain, bp) for _, chains, bps, *_ in tables.junctions.values()
                for chain, bp in zip(chains, bps) if bp is not None]
        assert all(chain.beta > 1 and chain.bottom not in tree.leaves
                   for chain, _ in kept)
        assert all(bp.ndim == 1 and bp.dtype == np.int32 for _, bp in kept)

    def test_wide_junction_keeps_branch_rows_only(self):
        # A root with 2000 legs of two edges, at the full budget: about
        # 0.73 MiB for the legs' eps=0 rows and chains, where pairwise
        # merges kept 16.4 MiB of backpointers for prefixes of up to 4001
        # cells.
        tree = make_spider(2000)
        tracemalloc.start()
        try:
            tables = build_tables(tree, len(tree.non_leaves))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 4 * 2**20
        assert list(tables.junctions) == [tree.root]
        _, chains, bps, caps, rows = tables.junctions[tree.root]
        assert len(chains) == len(bps) == len(caps) == len(rows) == 2000
        # The legs end in leaves: no serial merge ran, so none is kept.
        assert bps == (None,) * 2000

    def test_merging_junctions_keep_eps_zero_rows_only(self):
        # The eps=1 row of a branch is its eps=0 row raised by the head
        # gain, so only the eps=0 rows are kept: 1.23 MiB here, against
        # 2.46 MiB when both rows of every merging branch were kept. nbytes
        # rather than tracemalloc, which slows the pass several times.
        tree = random_tree(GeneratorConfig(n=20_000, seed=5,
                                           shape="binary-ish"))
        tables = build_tables(tree, 2000)
        kept = sum(row.nbytes for *_, rows in tables.junctions.values()
                   for row in rows)
        assert kept < 1.5 * 2**20


class TestInvariantsSurviveOptimize:
    """Structural faults raise RuntimeError, which ``python -O`` keeps."""

    @pytest.mark.parametrize("fault", ["lost_chain", "bottom_twice_in_cd"])
    def test_broken_partition_raises(self, ex1, monkeypatch, fault):
        # Leaf 8 is the bottom of a one-edge chain under junction 7.
        order = tuple(v for v in ex1.bfs_order if v != 8)
        if fault == "bottom_twice_in_cd":
            order = ex1.bfs_order + (8,)
        monkeypatch.setattr(ex1, "bfs_order", order)
        with pytest.raises(RuntimeError, match="do not partition"):
            decompose(ex1)

    def test_short_root_row_raises(self, ex1, monkeypatch):
        # Junction 1 loses its branch to v6, and with it upgradable node 5.
        dec = decompose(ex1)
        lossy = dataclasses.replace(dec, cd={**dec.cd, 1: (2, 7)})
        monkeypatch.setattr(solver, "decompose", lambda tree: lossy)
        with pytest.raises(RuntimeError, match="root row"):
            build_tables(ex1, len(ex1.non_leaves))


def naive_convolve(op, a, b, out_len):
    """out[m] = max over i + j = m of op(a[i], b[j]); arg = smallest such i."""
    out, arg = [], []
    for m in range(out_len):
        best = None
        for i in range(max(0, m - len(b) + 1), min(len(a), m + 1)):
            value = op(a[i], b[m - i])
            if best is None or value > best:
                best, best_i = value, i
        assert best is not None, f"cell {m} has no split"
        out.append(best)
        arg.append(best_i)
    return out, arg


class TestSerialEpsOne:
    """``combine_serial`` derives its eps=1 cells from the eps=0 merge; they
    must be those of a direct (max,+) merge of the chain's g1 row."""

    # A chain shorter than ``below`` runs _convolve's loop over the chain,
    # a longer one its loop over ``below``.
    @pytest.mark.parametrize("chain_longer", [False, True],
                             ids=["short-chain", "long-chain"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_g1_merge(self, chain_longer, data):
        beta = data.draw(st.integers(2 if chain_longer else 1, 8))
        if chain_longer:
            n_below = data.draw(st.integers(1, beta - 1))
            budget = data.draw(st.integers(n_below, beta + n_below + 1))
        else:
            n_below = data.draw(st.integers(beta, 9))
            budget = data.draw(st.integers(0, beta + n_below + 1))
        tail = sorted(data.draw(st.lists(st.integers(0, 2), min_size=beta - 1,
                                         max_size=beta - 1)), reverse=True)
        chain = Chain(1, 2, beta, data.draw(st.integers(0, 3)),
                      data.draw(st.integers(0, 2)), tuple(tail),
                      tuple(range(3, beta + 2)))
        below = data.draw(st.lists(st.integers(0, 2), min_size=n_below,
                                   max_size=n_below))
        ct = chain_g_table(chain, budget)
        assert (ct.g0.size > n_below) == chain_longer
        sl = solver.combine_serial(ct, np.array(below, dtype=np.int64),
                                   budget)
        for g, f, bp, limit in ((ct.g0, sl.f0, sl.bp, budget + 1),
                                (ct.g1, sl.f1, sl.bp[:budget], budget)):
            out_len = min(g.size + n_below - 1, limit) if g.size else 0
            assert (f.tolist(), bp.tolist()) == \
                naive_convolve(operator.add, g.tolist(), below, out_len)


class TestConvolve:
    """``_convolve`` against a plain double loop, ties included."""

    # Every operand the solver passes has a cell.
    @given(a=st.lists(st.integers(0, 3), min_size=1, max_size=7),
           b=st.lists(st.integers(0, 3), min_size=1, max_size=7),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_maxplus(self, a, b, data):
        limit = data.draw(st.integers(0, len(a) + len(b) + 2))
        # The result stops at the last cell with a split, or at the limit.
        out_len = min(limit, len(a) + len(b) - 1)
        # Both operand orders, so each side is the shorter one in turn.
        for x, y in ((a, b), (b, a)):
            out, arg = _convolve(np.array(x, dtype=np.int64),
                                 np.array(y, dtype=np.int64), limit)
            assert (out.tolist(), arg.tolist()) == \
                naive_convolve(operator.add, x, y, out_len)


def pairwise_merges(rows, limit):
    """Merge each row into the merge of the rows before it by a plain
    (max,min) double loop: the order whose smallest splits fix the
    solver's tie-breaks. Returns every merge's cells and smallest-split
    arguments, the first row's as it is."""
    merges = [(list(rows[0]), None)]
    for row in rows[1:]:
        prefix = merges[-1][0]
        out_len = max(0, min(len(row) + len(prefix) - 1, limit))
        merges.append(naive_convolve(min, row, prefix, out_len))
    return merges


@st.composite
def branch_rows(draw):
    """1..6 branches' non-decreasing rows with many ties, a budget their
    rows fit, and the leaf edges around them: f0 has 1..5 cells up to
    budget + 1, f1 as many up to budget, so at budget 0 every f1 row is
    empty. ``leaves[q]`` lists the (w, u) of the 0..2 leaf edges before
    branch q, and the last entry those after the last branch."""
    budget = draw(st.integers(0, 6))
    count = draw(st.integers(1, 6))

    def row(limit):
        size = draw(st.integers(min(1, limit), min(5, limit)))
        return sorted(draw(st.lists(st.integers(0, 3), min_size=size,
                                    max_size=size)))

    def leaf_edges():
        edges = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                              max_size=2))
        return [(min(pair), max(pair)) for pair in edges]

    leaves = [leaf_edges() for _ in range(count + 1)]
    return (budget, [(row(budget + 1), row(budget)) for _ in range(count)],
            leaves)


def with_leaf_edges(rows, leaves, eps):
    """The eps rows in ``cd`` order: each branch after its leaf edges, each
    leaf edge a one-cell row, and whether each entry is a branch."""
    order = []
    for q, edges in enumerate(leaves):
        order += [([edge[eps]], False) for edge in edges]
        if q < len(rows):
            order.append((rows[q][eps], True))
    return [row for row, _ in order], [real for _, real in order]


def leaf_caps(leaves, eps):
    """Per branch, the smallest eps cell of the leaf edges before it."""
    caps, cap = [], INT64_MAX
    for edges in leaves[:-1]:
        cap = min([cap] + [edge[eps] for edge in edges])
        caps.append(cap)
    return caps


class TestParallelMerge:
    """``combine_parallel`` and the walk's splits against a chain of plain
    pairwise (max,min) merges, ties included."""

    @given(case=branch_rows())
    @settings(max_examples=400, deadline=None)
    def test_matches_iterated_naive(self, case):
        # The branches merge uncapped; the leaf edges, wherever they sit,
        # cap the merged row once at their smallest cell.
        budget, rows, leaves = case
        sl = solver.combine_parallel(
            [solver.TableSlice(np.array(f0, dtype=np.int64),
                               np.array(f1, dtype=np.int64))
             for f0, f1 in rows], budget)
        for eps, got in ((0, sl.f0), (1, sl.f1)):
            merges = pairwise_merges([r[eps] for r in rows], budget + 1 - eps)
            assert got.tolist() == merges[-1][0]
            cap = min([INT64_MAX] + [edge[eps] for edges in leaves
                                     for edge in edges])
            merges = pairwise_merges(with_leaf_edges(rows, leaves, eps)[0],
                                     budget + 1 - eps)
            assert np.minimum(got, cap).tolist() == merges[-1][0]

    @given(case=branch_rows())
    @settings(max_examples=400, deadline=None)
    def test_splits_follow_pairwise_argmax(self, case):
        # Each leaf edge is a one-cell row of the pairwise merges, whose
        # split is 0; the branches' splits come from their uncapped rows
        # and the leaf edges' running minimum.
        budget, rows, leaves = case
        for eps in (0, 1):
            ordered, real = with_leaf_edges(rows, leaves, eps)
            merges = pairwise_merges(ordered, budget + 1 - eps)
            for m in range(len(merges[-1][0])):
                expected, rest = [0] * len(ordered), m
                for j in range(len(ordered) - 1, 0, -1):
                    expected[j] = merges[j][1][rest]
                    rest -= expected[j]
                expected[0] = rest
                assert not any(i for i, r in zip(expected, real) if not r)
                got = solver._branch_splits(
                    [np.array(r[eps], dtype=np.int64) for r in rows],
                    leaf_caps(leaves, eps), m)
                assert got == [i for i, r in zip(expected, real) if r], \
                    (eps, m)


@st.composite
def edge_weight_trees(draw):
    """Trees of 2..12 nodes whose weights mix zero, u == w and huge values;
    also returns the longest all-upgraded root-leaf path."""
    n = draw(st.integers(2, 12))
    records, depth = [], {1: 0}
    for child in range(2, n + 1):
        parent = draw(st.integers(1, child - 1))
        w = draw(st.sampled_from(EDGE_WEIGHTS))
        u = draw(st.sampled_from([x for x in EDGE_WEIGHTS if x >= w]))
        records.append((child, parent, w, u))
        depth[child] = depth[parent] + u
    return build_tree(records, root=1), max(depth.values())


class TestAgainstOracle:
    @given(case=edge_weight_trees(), data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_edge_case_weights(self, case, data):
        tree, longest = case
        k = data.draw(st.integers(0, len(tree.non_leaves)))
        if longest > INT64_MAX:
            with pytest.raises(InstanceError):
                solve_max(tree, k)
            return
        value = solve_max(tree, k).value
        assert value == brute_force_max(tree, k)[0]
        ceiling = all_upgraded_min_distance(tree)
        target = data.draw(st.sampled_from([value, min(value + 1, ceiling)])
                           | st.integers(0, ceiling))
        result = solve_cost(tree, target)
        assert result.kstar == brute_force_cost(tree, target)
        assert result.solution.upgraded == \
            solve_max(tree, result.kstar).upgraded

    def test_small_battery(self, battery):
        rng = random.Random(3)
        for tree in rng.sample(battery, 60):
            for budget in range(len(tree.non_leaves) + 1):
                sol = solve_max(tree, budget)
                value, _ = brute_force_max(tree, budget)
                assert sol.value == value
                assert len(sol.upgraded) <= budget
                assert evaluate_min_distance(tree, sol.upgraded) == sol.value

    def test_budget_monotone_and_ceiling(self, battery):
        rng = random.Random(4)
        for tree in rng.sample(battery, 40):
            cap = len(tree.non_leaves)
            values = [solve_max(tree, k).value for k in range(cap + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == all_upgraded_min_distance(tree)
            assert values[0] == evaluate_min_distance(tree, ())


@st.composite
def shaped_trees(draw):
    """Stars, brooms, deep paths and spiders of 2..12 nodes with tiny
    weights and u == w often. A star folds every branch; a broom folds
    under a chain; a spider's root merges legs of one to three edges, the
    one-edge legs capping the leg after them."""
    n = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["star", "broom", "path", "spider"]))
    if shape == "star":
        parents = {c: 1 for c in range(2, n + 1)}
    elif shape == "spider":
        parents, top = {}, 2
        while top <= n:
            length = draw(st.integers(1, 3))
            parents.update((c, 1 if c == top else c - 1)
                           for c in range(top, min(top + length, n + 1)))
            top += length
    elif shape == "path":
        parents = {c: c - 1 for c in range(2, n + 1)}
    else:
        handle = draw(st.integers(1, n - 1))
        parents = {c: min(c - 1, handle + 1) for c in range(2, n + 1)}
    records = []
    for child, parent in parents.items():
        w = draw(st.integers(0, 3))
        delta = draw(st.just(0) | st.integers(0, 3))
        records.append((child, parent, w, w + delta))
    return build_tree(records, root=1)


class TestShapesAgainstOracle:
    @given(tree=shaped_trees(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_star_broom_path(self, tree, data):
        for k in range(len(tree.non_leaves) + 1):
            assert solve_max(tree, k).value == brute_force_max(tree, k)[0]
        target = data.draw(st.integers(0, all_upgraded_min_distance(tree)))
        result = solve_cost(tree, target)
        assert result.kstar == brute_force_cost(tree, target)
        assert result.solution.upgraded == \
            solve_max(tree, result.kstar).upgraded


def tie_heavy_trees(count=300, n_max=30, seed=2026):
    """Seeded trees with w and delta in {0, 1, 2}; every other tree is
    path-like (each node hangs off the previous one four times in five)."""
    rng = random.Random(seed)
    trees = []
    for index in range(count):
        n = rng.randint(2, n_max)
        records = []
        for child in range(2, n + 1):
            if index % 2 and rng.random() < 0.8:
                parent = child - 1
            else:
                parent = rng.randint(1, child - 1)
            w = rng.randint(0, 2)
            records.append((child, parent, w, w + rng.randint(0, 2)))
        trees.append(build_tree(records, root=1))
    return trees


def larger_trees():
    """All four shapes at n = 120 and 400, tie-heavy and not, and spiders
    whose legs have one to three edges or exactly two."""
    trees = [random_tree(GeneratorConfig(n=n, seed=31 * n + i, w_max=w_max,
                                         delta_max=w_max, shape=shape))
             for shape in SHAPES for n in (120, 400)
             for i, w_max in enumerate((2, 100))]
    trees += [make_spider(legs, seed=legs, leg_edges=(1, 2, 2, 3))
              for legs in (40, 150)]
    trees += [make_spider(legs, seed=legs) for legs in (60, 500)]
    return trees


class TestTieBreaking:
    # Digest of every (value, sorted set) on the battery as computed by the
    # DP that runs every merge, forced splits included; any reordered tie
    # changes it.
    DIGEST = "508c4d19cc2333d84e9edb65f3ad78e29b4fa7284a25a55ccef6659eaec3fef8"

    def test_upgrade_sets_pinned(self):
        digest = hashlib.sha256()
        for tree in tie_heavy_trees():
            for k in range(len(tree.non_leaves) + 1):
                sol = solve_max(tree, k)
                digest.update(repr((sol.value, sorted(sol.upgraded))).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_leaf_edge_caps_apply_before_next_merge(self):
        # The root's branches: the chain 1-3-4, the leaf edge to 5 with
        # w = u = 0, the chain 1-2-6. Capped before the merge with the chain
        # to 6, the prefix is all 0, every split ties and the smallest
        # branch-side budget wins, so node 3 is upgraded. Capped after it,
        # the split that was best uncapped survives: node 2.
        tree = build_tree([(2, 1, 2, 4), (3, 1, 1, 2), (4, 3, 2, 3),
                           (5, 1, 0, 0), (6, 2, 0, 2)], root=1)
        sol = solve_max(tree, 1)
        assert (sol.value, sol.upgraded) == (0, {3})

    # The same digest over larger trees, whose junctions more often merge
    # three or more branches (64 such junctions here), at ten budgets each
    # and at the solve_cost witnesses of six targets.
    LARGER_DIGEST = (
        "87e9ee3537f3d82414e32b7f52214cb84ed60c3c3dad42adeca9d42c675563b0")

    def test_larger_tree_sets_pinned(self):
        digest = hashlib.sha256()
        for tree in larger_trees():
            cap = len(tree.non_leaves)
            for k in sorted({0, 1, 2, 3, 5, cap // 10, cap // 4, cap // 2,
                             3 * cap // 4, cap}):
                sol = solve_max(tree, k)
                digest.update(repr((sol.value, sorted(sol.upgraded))).encode())
            low = evaluate_min_distance(tree, ())
            high = all_upgraded_min_distance(tree)
            for target in sorted({low + (high - low) * i // 6
                                  for i in range(1, 6)} | {high}):
                res = solve_cost(tree, target)
                digest.update(repr((res.kstar, res.solution.value,
                                    sorted(res.solution.upgraded))).encode())
        assert digest.hexdigest() == self.LARGER_DIGEST


def handle_broom():
    """A five-edge handle from the root into a fan of 20 leaves."""
    records = [(c, c - 1, 2, 4) for c in range(2, 7)]
    records += [(c, 6, c % 3, c % 3 + 1) for c in range(7, 27)]
    return build_tree(records, root=1)


class TestForcedSplits:
    """Branches whose split is forced run no merge and build no chain table;
    ``combine_parallel`` runs once per junction with a branch that is not a
    leaf edge, and returns a lone branch as it is."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = dict.fromkeys(
            ("chain_g_table", "combine_serial", "combine_parallel"), 0)
        for name in counts:
            def wrapper(*args, _name=name, _real=getattr(solver, name)):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(solver, name, wrapper)
        return counts

    def test_star_runs_no_merge(self, calls):
        tree = build_tree([(c, 1, c % 3, c % 3 + c % 2) for c in range(2, 52)],
                          root=1)
        assert solve_max(tree, 1).value == brute_force_max(tree, 1)[0]
        assert calls == {"chain_g_table": 0, "combine_serial": 0,
                         "combine_parallel": 0}

    def test_broom_runs_one_serial_merge(self, calls):
        tree = handle_broom()
        k = len(tree.non_leaves)
        assert solve_max(tree, k).value == brute_force_max(tree, k)[0]
        assert calls == {"chain_g_table": 1, "combine_serial": 1,
                         "combine_parallel": 1}

    def test_edges_into_junctions_run_no_serial_merge(self, calls):
        # The root's three children are junctions fanning into four leaves
        # each, so every chain is a single edge.
        records = [(c, 1, c, c + 2) for c in (2, 3, 4)]
        records += [(10 * p + i, p, (p + i) % 3, (p + i) % 3 + i % 2)
                     for p in (2, 3, 4) for i in range(4)]
        tree = build_tree(records, root=1)
        budgets = range(len(tree.non_leaves) + 1)
        for k in budgets:
            assert solve_max(tree, k).value == brute_force_max(tree, k)[0]
        assert calls == {"chain_g_table": 0, "combine_serial": 0,
                         "combine_parallel": len(budgets)}

    def test_serial_merge_runs_one_convolution(self, calls, monkeypatch):
        # The eps=1 rows are the eps=0 rows raised by the head gain, so the
        # broom's one serial merge convolves once.
        convolutions = []

        def wrapper(*args, _real=solver._convolve):
            convolutions.append(len(args[0]))
            return _real(*args)

        monkeypatch.setattr(solver, "_convolve", wrapper)
        tree = handle_broom()
        k = len(tree.non_leaves)
        assert solve_max(tree, k).value == brute_force_max(tree, k)[0]
        assert calls["combine_serial"] == 1
        assert convolutions == [5]  # the handle's g0 row

    def test_leading_leaf_edge_caps_first_branch(self, calls):
        # The root's lowest-id child 2 is a leaf edge, then comes the chain
        # 1-3-4-5: the merge of that lone branch is the branch, the edge
        # caps the junction's row once at (w, u) = (3, 5), the root's record
        # holds the chain's bottom 5 alone, with no caps or rows to keep, and
        # the walk gives the chain all the budget. Uncapped, the row would
        # be [4, 8, 11, 13].
        tree = build_tree([(2, 1, 3, 5), (3, 1, 1, 4), (4, 3, 2, 6),
                           (5, 4, 1, 3)], root=1)
        budgets = range(len(tree.non_leaves) + 1)
        for k in budgets:
            assert solve_max(tree, k).value == brute_force_max(tree, k)[0]
            tables = build_tables(tree, k)
            assert list(tables.junctions) == [1]
            _, chains, bps, caps, rows = tables.junctions[1]
            assert tuple(chain.bottom for chain in chains) == (5,)
            assert (bps, caps, rows) == ((None,), (), ())
            assert tables.root_best.tolist() == [3, 5, 5, 5][:k + 1]
        # One merge per table pass: solve_max's and build_tables'.
        assert calls["combine_parallel"] == 2 * len(budgets)


class TestMonotoneRows:
    """The sorted-union (max,min) merge requires non-decreasing rows, and
    the walk, which keeps only the eps=0 rows, requires each branch's eps=1
    row to be its eps=0 row raised by one constant."""

    def test_parallel_operands_non_decreasing(self, monkeypatch):
        checked = []
        real = solver.combine_parallel

        def wrapper(branches, budget):
            merged = real(branches, budget)
            for sl in (*branches, merged):
                for row in (sl.f0, sl.f1):
                    checked.append(bool(np.all(row[1:] >= row[:-1])))
            for sl in branches:
                raise_by = sl.f1[0] - sl.f0[0] if sl.f1.size else 0
                checked.append(np.array_equal(
                    sl.f1, (sl.f0 + raise_by)[:budget]))
            return merged

        monkeypatch.setattr(solver, "combine_parallel", wrapper)
        trees = tie_heavy_trees() + [
            random_tree(GeneratorConfig(n=60, seed=seed, w_max=2,
                                        delta_max=2, shape=shape))
            for shape in SHAPES for seed in range(3)]
        for tree in trees:
            for k in range(len(tree.non_leaves) + 1):
                solve_max(tree, k)
        assert checked and all(checked)


def upgraded_depths(tree):
    """Every node's root distance with every non-leaf upgraded, in exact
    Python ints, computed here rather than by the package."""
    depth = {tree.root: 0}
    for v in tree.bfs_order[1:]:
        depth[v] = depth[tree.parent[v]] + tree.u[v]
    return depth


class TestOneGate:
    """``build_tables`` alone rejects a tree whose longest all-upgraded
    root-leaf path leaves int64. Every chain lies on a root-leaf path and
    every ``u >= 0``, so that gate bounds every chain's all-upgraded length
    and every g-cell, a prefix of it; ``chain_g_table`` checks nothing."""

    def check(self, tree):
        depth = upgraded_depths(tree)
        longest = max(depth[leaf] for leaf in tree.leaves)
        chains = decompose(tree).chains.values()
        for chain in chains:
            length = chain.w_sum + chain.head_delta + sum(chain.tail_deltas)
            assert length <= longest
            assert length == depth[chain.bottom] - depth[chain.top]
        budget = len(tree.non_leaves)
        if longest > INT64_MAX:
            with pytest.raises(InstanceError, match="int64 table limit"):
                build_tables(tree, budget)
            return
        build_tables(tree, budget)
        for chain in chains:
            table = chain_g_table(chain, budget)
            prefix = list(itertools.accumulate(chain.tail_deltas, initial=0))
            g0 = [chain.w_sum + p for p in prefix[:min(chain.beta - 1,
                                                      budget) + 1]]
            g1 = [chain.w_sum + chain.head_delta + p
                  for p in prefix[:min(chain.beta, budget)]]
            assert table.g0.tolist() == g0 and table.g1.tolist() == g1

    @given(case=edge_weight_trees())
    @settings(max_examples=300, deadline=None)
    def test_edge_case_weights(self, case):
        tree, longest = case
        assert max(upgraded_depths(tree)[leaf]
                   for leaf in tree.leaves) == longest
        self.check(tree)

    @pytest.mark.parametrize("w_max", [2, 2**61])
    @pytest.mark.parametrize("legs", [1, 3, 40])
    def test_spiders(self, legs, w_max):
        for seed in range(5):
            self.check(make_spider(legs, seed=seed, w_max=w_max,
                                   delta_max=w_max, leg_edges=(1, 2, 3)))

    def test_handle_broom(self):
        self.check(handle_broom())
