"""The seams the benchmark tracer wraps still exist, and its counters still
read the results they are handed.

A traced benchmark run reports a name it cannot find as absent rather
than failing, so a refactor that renames a traced function or a result
field would otherwise show only in the traced smoke run. This reads
``perfbench/spans.py`` and imports nothing else from ``perfbench``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from interdict import solver
from interdict.solver import decompose

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# Absent on purpose: the module interdict.budget is gone (solve_cost lives
# in interdict.solver), and the solver never imported apply_upgrades.
ABSENT = {"interdict.budget.solve_max", "interdict.solver.apply_upgrades"}


def _resolves(module_name, attr):
    try:
        return hasattr(importlib.import_module(module_name), attr)
    except ImportError:
        return False


@pytest.mark.parametrize("module_name, attr",
                         [target[:2] for target in spans.TARGETS],
                         ids=[".".join(t[:2]) for t in spans.TARGETS])
def test_target_resolves_unless_absent_on_purpose(module_name, attr):
    name = f"{module_name}.{attr}"
    assert _resolves(module_name, attr) == (name not in ABSENT)


def test_decompose_counts(ex1):
    # Junctions 1, 2 and 7; chains to 2, 3, 4, 6, 7, 8 and 10, of which
    # those to 3, 4, 6, 8 and 10 end in leaves.
    assert spans._decompose_counts((ex1,), decompose(ex1)) == {
        "decompose.junctions": 3, "decompose.chains": 7,
        "decompose.leaf_chains": 5}


def test_g_cells(ex1):
    chain = decompose(ex1).chains[10]  # 7-9-10, two edges
    assert spans._g_cells((chain, 1), solver.chain_g_table(chain, 1)) == {
        "chains.g_cells": 3}


def test_slice_counts(ex1):
    chains = decompose(ex1).chains
    args = (solver.chain_g_table(chains[7], 1), np.array([3, 10]), 1)
    serial = solver.combine_serial(*args)
    assert spans._slice_counts(args, serial) == {
        "solver.table_cells": 3, "solver.widest_row": 2}
    g6 = solver.chain_g_table(chains[6], 1)
    branches = [serial, solver.TableSlice(g6.g0, g6.g1)]
    parallel = solver.combine_parallel(branches, 1)
    assert spans._slice_counts((branches, 1), parallel) == {
        "solver.table_cells": 3, "solver.widest_row": 2}
