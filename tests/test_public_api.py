"""The package exports the user API and none of the dynamic program's
records, which live in ``interdict.solver`` and may change without notice."""

import importlib

import pytest

import interdict

PUBLIC = [
    "CostResult", "CycleDetected", "DisconnectedInput", "DuplicateChild",
    "GeneratorConfig", "InstanceError", "InterdictError", "LeafInSet",
    "NegativeWeight", "ORACLE_LIMIT", "ParseError", "RootedTree", "SHAPES",
    "Solution", "TargetUnreachable", "TooLargeForOracle", "TrivialTree",
    "UpgradeBelowBase", "all_upgraded_min_distance", "brute_force_cost",
    "brute_force_max", "build_tables", "build_tree", "evaluate_min_distance",
    "format_instance", "load_instance", "parse_instance", "random_tree",
    "solve_cost", "solve_max",
]
INTERNAL = ["BudgetQuery", "Chain", "Decomposition", "DpTables", "decompose"]


def test_public_surface():
    assert sorted(interdict.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(interdict, name)] == []
    # The decomposition lives in interdict.solver, with the other records.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("interdict.decompose")
    solver = importlib.import_module("interdict.solver")
    for name in INTERNAL:
        assert name not in vars(interdict)
        assert hasattr(solver, name)
