import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interdict.cli
from interdict.cli import main
from interdict import format_instance, build_tree
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
                            "target", "kstar", "value", "upgraded", "probes"}
        assert doc["probes"] == 1
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

    @pytest.mark.parametrize("query", [["--budget", "3"],
                                       ["--target", "50"]])
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
