"""Planted bugs in ``solver.py`` that the tests must catch.

Each mutant replaces one piece of text in a temporary copy of the package
and runs the tests chosen to guard that piece in a child pytest, with the
copy alone on ``PYTHONPATH`` and the working directory in the temporary
directory, so the child writes nothing next to the sources. The mutant is
killed when the child reports failing tests. A mutant whose text is not in
the source fails as well, so the list cannot fall behind the code.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import interdict

PACKAGE = Path(interdict.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

SMALL_BATTERY = "test_solver.py::TestAgainstOracle::test_small_battery"
TIE_BREAKING = "test_solver.py::TestTieBreaking"

# name: (text in solver.py, its replacement, the tests that must fail)
MUTANTS = {
    "parallel_cap_at_largest_last_cell": (
        "min(row[-1] for row in rows)", "max(row[-1] for row in rows)",
        ("test_solver.py::TestTables", SMALL_BATTERY)),
    "walk_splits_ignore_leaf_edge_caps": (
        "np.minimum(cells[ends - 1], caps)", "cells[ends - 1]",
        (TIE_BREAKING + "::test_leaf_edge_caps_apply_before_next_merge",)),
    "walk_gives_chain_more_than_it_holds": (
        "min(i, chain.beta - 1)", "i", (TIE_BREAKING, SMALL_BATTERY)),
    "no_int64_gate": (
        "if longest > _INT64_MAX:", "if False:",
        ("test_solver.py::TestInt64Range",)),
}


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Start every mutant's child at once, each in its own directory; a
    mutant whose text is not in the source gets no child."""
    started = {}
    for name, (old, new, selected) in MUTANTS.items():
        root = tmp_path_factory.mktemp(name)
        package = root / "src" / "interdict"
        shutil.copytree(PACKAGE, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        solver = package / "solver.py"
        text = solver.read_text()
        if text.count(old) != 1:
            started[name] = None
            continue
        solver.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        with open(root / "log.txt", "w") as log:
            started[name] = (root / "log.txt", subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider",
                 *(str(TESTS / test) for test in selected)],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT))
    yield started
    for entry in started.values():
        if entry:
            entry[1].kill()
            entry[1].wait()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, children):
    assert children[name], f"{MUTANTS[name][0]!r} is not in solver.py once"
    log, child = children[name]
    # Exit code 1: tests ran and some failed. Collection or usage errors
    # (2 to 5) do not count as a kill.
    assert child.wait(timeout=300) == 1, log.read_text()[-3000:]
