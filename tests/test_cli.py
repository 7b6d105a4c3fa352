import ast
import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interdict.cli
from interdict.cli import main
from interdict import build_tree, format_instance, load_instance
from interdict.solver import decompose
from conftest import EX1_RECORDS, NUMBER_TOKENS

EX1_TEXT = format_instance(build_tree(EX1_RECORDS, root=1))


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveMax:
    def test_text_output(self, capsys, ex1_file):
        code, out, err = run_cli(capsys, "solve-max", ex1_file, "--budget", "1")
        assert code == 0
        assert "value=13" in out
        assert "upgraded=[1]" in out
        assert "time_ms=" in err and "time_ms=" not in out

    def test_budget_zero(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "solve-max", ex1_file, "--budget", "0")
        assert code == 0
        assert "value=7" in out and "upgraded=[]" in out

    def test_json_output(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "solve-max", ex1_file,
                               "--budget", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 13 and doc["upgraded"] == [1]
        assert doc["n"] == 10 and doc["non_leaves"] == 5

    def test_malformed_line_cites_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n2 1 1 2\n3 2 x 10\n")
        code, out, err = run_cli(capsys, "solve-max", str(bad), "--budget", "1")
        assert code == 2
        assert out == ""
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve-max", "/no/such/file", "--budget", "1")
        assert code == 2 and "error:" in err

    def test_scale_allows_decimals(self, capsys, tmp_path):
        path = tmp_path / "dec.txt"
        path.write_text("2 1\n2 1 1.5 2.25\n")
        code, out, _ = run_cli(capsys, "solve-max", str(path),
                               "--budget", "1", "--scale", "100")
        assert code == 0 and "value=225" in out


class TestSolveCost:
    def test_reachable(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "solve-cost", ex1_file, "--target", "13")
        assert code == 0
        assert "kstar=1" in out

    def test_baseline_target(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "solve-cost", ex1_file, "--target", "7")
        assert code == 0 and "kstar=0" in out

    def test_unreachable_exit_3(self, capsys, ex1_file):
        code, out, err = run_cli(capsys, "solve-cost", ex1_file, "--target", "21")
        assert code == 3
        assert out == ""
        assert "unreachable: ceiling 20" in err

    @pytest.mark.parametrize("target, kstar, value, upgraded", [
        (7, 0, 7, []), (13, 1, 13, [1]), (14, 2, 14, [1, 7]),
        (20, 4, 20, [1, 2, 5, 7])])
    def test_json_schema(self, capsys, ex1_file, target, kstar, value,
                         upgraded):
        code, out, _ = run_cli(capsys, "solve-cost", ex1_file, "--target",
                               str(target), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "instance", "n", "leaves", "non_leaves",
                            "target", "kstar", "value", "upgraded"}
        assert (doc["kstar"], doc["value"], doc["upgraded"]) == \
            (kstar, value, upgraded)


class TestGen:
    def test_writes_file_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "g.txt"
        code, out, _ = run_cli(capsys, "gen", "--nodes", "12", "--seed", "7",
                               "-o", str(out_path))
        assert code == 0
        assert "n=12" in out
        text = out_path.read_text()
        assert text.startswith("12 1\n")

    def test_stdout_instance_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--nodes", "2", "--seed", "0")
        assert code == 0
        header, edge = out.strip().splitlines()
        assert header == "2 1" and len(edge.split()) == 4

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "gen", "--nodes", "12", "--seed", "7", "-o", str(a))
        run_cli(capsys, "gen", "--nodes", "12", "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("nodes", ["0", "1"])
    def test_fewer_than_two_nodes_is_usage_error(self, capsys, nodes):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--nodes", nodes, "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --nodes: must be >= 2" in captured.err

    def test_large_instance_round_trip(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        code, _, _ = run_cli(capsys, "gen", "--nodes", "3000", "--seed", "1",
                             "-o", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "solve-max", str(path), "--budget", "5")
        assert code == 0 and "value=" in out


class TestVerify:
    def test_match_budget(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "verify", ex1_file, "--budget", "1")
        assert code == 0
        assert "dp=13" in out and "oracle=13" in out and "verdict=MATCH" in out

    def test_match_budget_zero(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "verify", ex1_file, "--budget", "0")
        assert code == 0 and "dp=7" in out

    def test_match_target(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "verify", ex1_file, "--target", "14")
        assert code == 0
        assert "dp_kstar=2" in out and "oracle_kstar=2" in out

    def test_generated_battery_matches(self, capsys, tmp_path):
        for seed in range(3):
            path = tmp_path / f"v{seed}.txt"
            run_cli(capsys, "gen", "--nodes", "12", "--seed", str(seed),
                    "-o", str(path))
            code, out, _ = run_cli(capsys, "verify", str(path), "--budget", "3")
            assert code == 0 and "verdict=MATCH" in out

    # A DP one off the oracle: one more than its value, one more than its k*.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("query, expected", [
        (["--budget", "3"], {"budget": 3, "dp": 68, "oracle": 67}),
        (["--target", "67"],
         {"target": 67, "dp_kstar": 2, "oracle_kstar": 1})])
    def test_mismatch_exits_4(self, capsys, tmp_path, monkeypatch, fmt, query,
                              expected):
        path = str(tmp_path / "cat.txt")
        run_cli(capsys, "gen", "--nodes", "40", "--seed", "1",
                "--shape", "caterpillar", "-o", path)
        solve_max = interdict.cli.solve_max
        solve_cost = interdict.cli.solve_cost

        def off_max(tree, budget):
            sol = solve_max(tree, budget)
            return dataclasses.replace(sol, value=sol.value + 1)

        def off_cost(tree, target):
            result = solve_cost(tree, target)
            return dataclasses.replace(result, kstar=result.kstar + 1)

        monkeypatch.setattr(interdict.cli, "solve_max", off_max)
        monkeypatch.setattr(interdict.cli, "solve_cost", off_cost)
        code, out, err = run_cli(capsys, "verify", path, *query,
                                 "--format", fmt)
        assert code == 4 and "time_ms=" in err
        report = {"command": "verify", "instance": path, "n": 40,
                  "leaves": 20, "non_leaves": 20, **expected,
                  "verdict": "MISMATCH"}
        if fmt == "json":
            assert json.loads(out) == report
        else:
            assert out == "".join(f"{k}={v}\n" for k, v in report.items())

    # The tree's ceiling is 113: the size check comes first also for a target
    # above it, where exit 3 (unreachable) would be wrong.
    @pytest.mark.parametrize("query", [["--budget", "3"],
                                       ["--target", "50"],
                                       ["--target", "1000"]])
    def test_over_oracle_limit_runs_no_dp(self, capsys, tmp_path,
                                          monkeypatch, query):
        path = tmp_path / "big.txt"
        run_cli(capsys, "gen", "--nodes", "60", "--seed", "5",
                "--shape", "caterpillar", "-o", str(path))
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("solve_max", "solve_cost"):
            monkeypatch.setattr(interdict.cli, name,
                                counting(name, getattr(interdict.cli, name)))
        code, out, err = run_cli(capsys, "verify", str(path), *query)
        assert code == 2 and out == ""
        assert "30 non-leaf nodes exceeds the oracle limit of 25" in err
        assert calls == []


def _chain(bottom, top, beta, w_sum, head_delta, tail=()):
    return {"bottom": bottom, "top": top, "beta": beta, "w_sum": w_sum,
            "head_delta": head_delta, "tail_deltas": [d for d, _ in tail],
            "tail_owners": [o for _, o in tail]}


# The whole ``inspect --format json`` document of the golden instance.
EX1_INSPECT = {
    "command": "inspect", "n": 10, "leaves": 5, "non_leaves": 5,
    "branching": [2, 7], "order": [7, 2, 1],
    "layers": {"1": 1, "2": 2, "3": 2, "4": 2, "5": 1, "6": 1, "7": 2,
               "8": 2, "9": 2, "10": 2},
    "chains": [_chain(2, 1, 1, 6, 4), _chain(3, 2, 1, 7, 3),
               _chain(4, 2, 1, 4, 6), _chain(6, 1, 2, 9, 9, [(2, 5)]),
               _chain(7, 1, 1, 4, 6), _chain(8, 7, 1, 3, 7),
               _chain(10, 7, 2, 9, 6, [(5, 9)])],
}


class TestInspect:
    def test_text(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "inspect", ex1_file)
        assert code == 0
        assert "branching=[2,7]" in out
        assert "order=[7,2,1]" in out

    def test_json(self, capsys, ex1_file):
        code, out, _ = run_cli(capsys, "inspect", ex1_file, "--format", "json")
        assert code == 0
        assert json.loads(out) == {**EX1_INSPECT, "instance": ex1_file}

    def test_paper_layer_order(self, capsys, tmp_path):
        # The solver runs junctions in reversed BFS order, (3, 6, 1) here;
        # inspect prints the paper's order: deepest layer first, ties by
        # descending id. On the golden instance the two orders agree.
        path = str(tmp_path / "b29.txt")
        run_cli(capsys, "gen", "--nodes", "9", "--seed", "29",
                "--shape", "binary-ish", "-o", path)
        assert decompose(load_instance(path)).order == (3, 6, 1)
        code, out, _ = run_cli(capsys, "inspect", path)
        assert code == 0
        assert "branching=[3,6]\norder=[6,3,1]\n" in out
        code, out, _ = run_cli(capsys, "inspect", path, "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["order"] == [6, 3, 1] and doc["branching"] == [3, 6]
        assert doc["layers"] == {"1": 1, "2": 1,
                                 **{str(v): 2 for v in range(3, 10)}}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_length_past_str_digit_limit(self, capsys, tmp_path, fmt):
        # Scaled, the chain length has more digits than Python will print.
        path = tmp_path / "long.txt"
        path.write_text("2 1\n2 1 1e4299 1e4299\n")
        code, out, err = run_cli(capsys, "inspect", str(path), "--scale", "10",
                                 "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: chain to 2: length of 4301 digits is too " \
                      "long to print\n"


# Every report's whole stdout, text and JSON, byte for byte: the golden
# instance is read as ex1.txt from the working directory, gen writes g.txt.
EX1_HEAD = "instance=ex1.txt\nn=10\nleaves=5\nnon_leaves=5\n"
EX1_JSON_HEAD = '"instance":"ex1.txt","leaves":5,"n":10,"non_leaves":5'
REPORTS = {
    "solve-max ex1.txt --budget 1": (
        "command=solve-max\n" + EX1_HEAD
        + "budget=1\nvalue=13\nupgraded=[1]\n",
        '{"budget":1,"command":"solve-max",' + EX1_JSON_HEAD
        + ',"upgraded":[1],"value":13}\n'),
    "solve-cost ex1.txt --target 13": (
        "command=solve-cost\n" + EX1_HEAD
        + "target=13\nkstar=1\nvalue=13\nupgraded=[1]\n",
        '{"command":"solve-cost","instance":"ex1.txt","kstar":1,"leaves":5,'
        '"n":10,"non_leaves":5,"target":13,"upgraded":[1],"value":13}\n'),
    "verify ex1.txt --budget 1": (
        "command=verify\n" + EX1_HEAD
        + "budget=1\ndp=13\noracle=13\nverdict=MATCH\n",
        '{"budget":1,"command":"verify","dp":13,' + EX1_JSON_HEAD
        + ',"oracle":13,"verdict":"MATCH"}\n'),
    "verify ex1.txt --target 13": (
        "command=verify\n" + EX1_HEAD
        + "target=13\ndp_kstar=1\noracle_kstar=1\nverdict=MATCH\n",
        '{"command":"verify","dp_kstar":1,' + EX1_JSON_HEAD
        + ',"oracle_kstar":1,"target":13,"verdict":"MATCH"}\n'),
    "inspect ex1.txt": (
        "command=inspect\n" + EX1_HEAD + "branching=[2,7]\norder=[7,2,1]\n"
        "bottom=2 top=1 beta=1 w_sum=6 head_delta=4 tail_deltas=[] "
        "tail_owners=[]\n"
        "bottom=3 top=2 beta=1 w_sum=7 head_delta=3 tail_deltas=[] "
        "tail_owners=[]\n"
        "bottom=4 top=2 beta=1 w_sum=4 head_delta=6 tail_deltas=[] "
        "tail_owners=[]\n"
        "bottom=6 top=1 beta=2 w_sum=9 head_delta=9 tail_deltas=[2] "
        "tail_owners=[5]\n"
        "bottom=7 top=1 beta=1 w_sum=4 head_delta=6 tail_deltas=[] "
        "tail_owners=[]\n"
        "bottom=8 top=7 beta=1 w_sum=3 head_delta=7 tail_deltas=[] "
        "tail_owners=[]\n"
        "bottom=10 top=7 beta=2 w_sum=9 head_delta=6 tail_deltas=[5] "
        "tail_owners=[9]\n",
        '{"branching":[2,7],"chains":['
        '{"beta":1,"bottom":2,"head_delta":4,"tail_deltas":[],'
        '"tail_owners":[],"top":1,"w_sum":6},'
        '{"beta":1,"bottom":3,"head_delta":3,"tail_deltas":[],'
        '"tail_owners":[],"top":2,"w_sum":7},'
        '{"beta":1,"bottom":4,"head_delta":6,"tail_deltas":[],'
        '"tail_owners":[],"top":2,"w_sum":4},'
        '{"beta":2,"bottom":6,"head_delta":9,"tail_deltas":[2],'
        '"tail_owners":[5],"top":1,"w_sum":9},'
        '{"beta":1,"bottom":7,"head_delta":6,"tail_deltas":[],'
        '"tail_owners":[],"top":1,"w_sum":4},'
        '{"beta":1,"bottom":8,"head_delta":7,"tail_deltas":[],'
        '"tail_owners":[],"top":7,"w_sum":3},'
        '{"beta":2,"bottom":10,"head_delta":6,"tail_deltas":[5],'
        '"tail_owners":[9],"top":7,"w_sum":9}],'
        '"command":"inspect","instance":"ex1.txt",'
        '"layers":{"1":1,"10":2,"2":2,"3":2,"4":2,"5":1,"6":1,"7":2,"8":2,'
        '"9":2},"leaves":5,"n":10,"non_leaves":5,"order":[7,2,1]}\n'),
    "gen --nodes 12 --seed 7 -o g.txt": (
        "command=gen\nout=g.txt\nn=12\nleaves=6\nnon_leaves=6\nseed=7\n"
        "shape=uniform-attachment\nwmax=100\ndmax=100\n",
        '{"command":"gen","dmax":100,"leaves":6,"n":12,"non_leaves":6,'
        '"out":"g.txt","seed":7,"shape":"uniform-attachment","wmax":100}\n'),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", REPORTS)
def test_report_bytes(capsys, tmp_path, monkeypatch, command, fmt):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ex1.txt").write_text(EX1_TEXT)
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert out == REPORTS[command][fmt == "json"]


def test_removed_bench_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve-max", "{f}", "--budget=--"], ["solve-cost", "{f}", "--target=--"],
    ["verify", "{f}", "--target=--"],
    ["solve-max", "{f}", "--budget", "1", "--scale=--"],
    ["inspect", "{f}", "--format=--"], ["gen", "--nodes=--", "--seed", "1"]])
def test_double_dash_option_value_is_usage_error(capsys, ex1_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(f=ex1_file) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected one argument" in captured.err


def test_console_entry_point(ex1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "interdict", "solve-max", ex1_file,
         "--budget", "1", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 13


def run_module(*argv, optimize=False, timeout=None):
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "interdict", *argv],
                          capture_output=True, text=True, timeout=timeout)


def test_optimized_interpreter_keeps_checks(ex1_file, tmp_path):
    proc = run_module("solve-max", ex1_file, "--budget", "1",
                      "--format", "json", optimize=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == 13 and doc["upgraded"] == [1]

    proc = run_module("solve-cost", ex1_file, "--target", "14",
                      "--format", "json", optimize=True)
    assert proc.returncode == 0 and json.loads(proc.stdout)["kstar"] == 2

    # Root-leaf paths of two 2**62 edges wrap int64 table cells.
    x = 2**62
    wrap = tmp_path / "wrap.txt"
    wrap.write_text(f"4 1\n2 1 {x} {x}\n3 2 {x} {x}\n4 2 {x} {x}\n")
    proc = run_module("solve-max", str(wrap), "--budget", "1", optimize=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_package_has_no_assert():
    # python -O strips assert statements, so no runtime check may be one.
    package = Path(interdict.cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_length_past_int64_is_input_error(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"2 1\n2 1 0 {2**63}\n")
    for argv in (["solve-max", str(path), "--budget", "1"],
                 ["solve-cost", str(path), "--target", "1"]):
        proc = run_module(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["solve-cost", "verify"])
def test_zero_denominator_target_is_input_error(capsys, ex1_file, command):
    code, out, err = run_cli(capsys, command, ex1_file, "--target", "1/0",
                             "--scale", "10")
    assert code == 2 and out == ""
    assert "error:" in err and "zero denominator" in err


@pytest.mark.parametrize("field", ["base length", "target"])
def test_decimal_needs_scale(capsys, tmp_path, field):
    # A decimal weight fails every file-reading subcommand without --scale, a
    # decimal target the two that take one; all four accept the shared
    # --scale and --format options.
    path = tmp_path / "dec.txt"
    path.write_text("2 1\n2 1 1.5 3\n" if field == "base length" else EX1_TEXT)
    target = "1.5" if field == "target" else "1"
    queries = {"solve-max": ["--budget", "1"], "solve-cost": ["--target", target],
               "verify": ["--target", target], "inspect": []}
    for command, query in queries.items():
        argv = [command, str(path), *query]
        if field == "base length" or "--target" in query:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", command
            assert f"{field}, got '1.5'; decimals need a scale" in err, err
        code, out, _ = run_cli(capsys, *argv, "--scale", "10", "--format", "json")
        assert code == 0 and json.loads(out)["command"] == command


@pytest.mark.parametrize("case", ["target", "negative_target", "weight"])
def test_huge_decimal_exponent_is_input_error(ex1_file, tmp_path, case):
    # The exact value of 1e999999999 would take minutes to build.
    if case == "weight":
        path = tmp_path / "huge.txt"
        path.write_text("2 1\n2 1 1e999999999 1e999999999\n")
        argv = ["solve-max", str(path), "--budget", "1"]
    else:
        target = "1e999999999" if case == "target" else "1e-999999999"
        argv = ["solve-cost", ex1_file, "--target", target]
    start = time.perf_counter()
    proc = run_module(*argv, "--scale", "10", timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "exponent" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_large_exponent_within_limit_is_unreachable(capsys, ex1_file):
    code, out, err = run_cli(capsys, "solve-cost", ex1_file,
                             "--target", "1e30", "--scale", "10")
    assert code == 3 and out == ""
    assert "unreachable: ceiling 200" in err


@pytest.mark.parametrize("command", ["solve-cost", "verify"])
def test_negative_target_past_str_digit_limit(capsys, ex1_file, command):
    code, out, err = run_cli(capsys, command, ex1_file, "--target=-1e4299",
                             "--scale", "10")
    assert code == 2 and out == ""
    assert err == "error: target of 4301 digits is below 0\n"


@pytest.mark.parametrize("target", ["1e4299", "1e4300"])
def test_target_past_str_digit_limit_is_unreachable(ex1_file, target):
    # Scaled, the target has more digits than Python will print.
    proc = run_module("solve-cost", ex1_file, "--target", target,
                      "--scale", "10")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "digits unreachable: ceiling 200" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def ex1_module_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ex1.txt"
    path.write_text(EX1_TEXT)
    return str(path)


TARGET_TOKENS = st.one_of(NUMBER_TOKENS, st.sampled_from(["-", "--"]),
                          st.text(max_size=6))


@given(target=TARGET_TOKENS, command=st.sampled_from(["solve-cost", "verify"]),
       scale=st.sampled_from([None, "1", "10"]), joined=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fuzz_target_exits_cleanly(ex1_module_file, target, command, scale,
                                   joined):
    # "--target=-x" reaches the parser; "--target -x" is a usage error.
    target_args = [f"--target={target}"] if joined else ["--target", target]
    argv = [command, ex1_module_file, *target_args]
    if scale is not None:
        argv += ["--scale", scale]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2
            return
    assert code in (0, 2, 3)
