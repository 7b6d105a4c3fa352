"""Planted bugs in the package that the tests must catch.

Each mutant replaces one piece of text in one module of a temporary copy of
the package and runs the tests chosen to guard that piece in a child
pytest, with the copy alone on ``PYTHONPATH`` and the working directory in
the temporary directory, so the child writes nothing next to the sources.
The mutant is killed when the child reports failing tests. A mutant whose
text is not in its module fails as well, so the list cannot fall behind the
code. At most ``WORKERS`` children run at a time.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import interdict

PACKAGE = Path(interdict.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
WORKERS = 4

SMALL_BATTERY = "test_solver.py::TestAgainstOracle::test_small_battery"
TIE_BREAKING = "test_solver.py::TestTieBreaking"

# name: (module, its text, the replacement, the tests that must fail)
MUTANTS = {
    "parallel_cap_at_largest_last_cell": (
        "solver.py", "min(row[-1] for row in rows)",
        "max(row[-1] for row in rows)",
        ("test_solver.py::TestTables", SMALL_BATTERY)),
    "parallel_merge_uncapped": (
        "solver.py",
        "return np.minimum(out, min(row[-1] for row in rows), out=out)",
        "return out", ("test_solver.py::TestTables", SMALL_BATTERY)),
    "parallel_rank_shifted_by_one": (
        "solver.py", "np.sort(np.concatenate(rows))[:size]",
        "np.sort(np.concatenate(rows))[1:size + 1]",
        ("test_solver.py::TestTables", SMALL_BATTERY)),
    "parallel_merge_one_cell_short": (
        "solver.py", "- len(rows) + 1, limit)", "- len(rows), limit)",
        ("test_solver.py::TestTables", SMALL_BATTERY)),
    "serial_head_gain_zero": (
        "solver.py", "head_gain = ct.g1[0] - ct.g0[0] if budget else 0",
        "head_gain = 0", ("test_solver.py::TestTables", SMALL_BATTERY)),
    "convolve_ties_to_largest_index": (
        "solver.py", "mask = seg > view", "mask = seg >= view",
        (TIE_BREAKING,)),
    "collapse_ties_to_eps_one": (
        "solver.py", "eps[1:m + 1] = f1[:m] > overlap",
        "eps[1:m + 1] = f1[:m] >= overlap", (TIE_BREAKING,)),
    "walk_splits_ignore_leaf_edge_caps": (
        "solver.py", "np.minimum(cells[ends - 1], caps)", "cells[ends - 1]",
        (TIE_BREAKING + "::test_leaf_edge_caps_apply_before_next_merge",)),
    "walk_gives_chain_more_than_it_holds": (
        "solver.py", "min(i, chain.beta - 1)", "i",
        (TIE_BREAKING, SMALL_BATTERY)),
    "walk_gives_chain_nothing": (
        "solver.py", "min(i, chain.beta - 1)", "0",
        (TIE_BREAKING, SMALL_BATTERY)),
    "no_int64_gate": (
        "solver.py", "if longest > _INT64_MAX:", "if False:",
        ("test_solver.py::TestInt64Range",)),
    "tail_sorted_by_ascending_gain": (
        "solver.py",
        "sorted((w[e] - u[e], parent[e]) for e in path[:-1])",
        "sorted(((w[e] - u[e], parent[e]) for e in path[:-1]), reverse=True)",
        (SMALL_BATTERY,)),
    "verify_mismatch_exits_0": (
        "cli.py",
        'EXIT_MISMATCH if fields.get("verdict") == "MISMATCH" else EXIT_OK',
        "EXIT_OK", ("test_cli.py::TestVerify::test_mismatch_exits_4",)),
}


def _run_mutant(root: Path, selected) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(str(TESTS / test) for test in selected)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    return child.returncode, child.stdout


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Submit every mutant's child, each in its own directory; a mutant
    whose text is not in its module once gets no child."""
    started = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        for name, (module, old, new, selected) in MUTANTS.items():
            root = tmp_path_factory.mktemp(name)
            package = root / "src" / "interdict"
            shutil.copytree(PACKAGE, package,
                            ignore=shutil.ignore_patterns("__pycache__"))
            text = (package / module).read_text()
            if text.count(old) != 1:
                started[name] = None
                continue
            (package / module).write_text(text.replace(old, new))
            started[name] = pool.submit(_run_mutant, root, selected)
        yield started
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, children):
    module, old = MUTANTS[name][:2]
    assert children[name], f"{old!r} is not in {module} once"
    code, log = children[name].result()
    # Exit code 1: tests ran and some failed. Collection or usage errors
    # (2 to 5) do not count as a kill.
    assert code == 1, log[-3000:]
