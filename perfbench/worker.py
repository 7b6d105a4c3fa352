"""One workload in one fresh process: set up, run the timed loop, check.

``run.py`` starts this script for every measured run, and with
``--setup-only`` for every set-up sample, so peak memory and warm state
belong to one workload alone. Load is one client in a closed loop: one op
at a time, no threads, at most one CLI child at a time. The last line of
standard output is one JSON object with the ops attempted and failed, the
metrics and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

from spans import LAYERS, Tracer, perf, summarize
from workloads import (FRACTIONS, Query, make_instance, min_distance, schedule,
                       target_at)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT = 60
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many ops above


class Outcome:
    """An op's answer in one form for library and CLI ops."""

    def __init__(self, value=None, upgraded=None, kstar=None, error=None,
                 report=None, reported_s=None):
        self.value = value
        self.upgraded = upgraded
        self.kstar = kstar
        self.error = error
        self.report = report
        self.reported_s = reported_s

    def key(self):
        return self.value, self.upgraded, self.kstar


class Library:
    """Ops through the package's public functions, in this process.

    A library op is ``parse_instance(text)`` plus the solve.
    """

    def __init__(self, interdict, tracer: Tracer | None = None):
        def wrap(fn, name):
            return tracer.wrap(fn, name) if tracer else fn

        self.parse = wrap(interdict.parse_instance, "instances.parse")
        self.solve_max = wrap(interdict.solve_max, "solver.solve_max")
        self.solve_cost = wrap(interdict.solve_cost, "budget.solve_cost")

    def run(self, q: Query, traced: bool = False):
        # ``traced`` needs no branch here: the wrappers record spans only
        # while the tracer is active.
        tree = self.parse(q.instance.text)
        if q.kind == "max":
            return self.solve_max(tree, q.budget)
        return self.solve_cost(tree, q.target)

    @staticmethod
    def outcome(q: Query, raw) -> Outcome:
        if q.kind == "max":
            return Outcome(raw.value, frozenset(raw.upgraded))
        return Outcome(raw.solution.value, frozenset(raw.solution.upgraded),
                       raw.kstar)


class Cli:
    """Ops as ``python -m interdict ... --format json`` child processes.

    A CLI op is the whole child process. Traced ops run ``cli_child.py``
    instead, which records spans inside the child.
    """

    def __init__(self, tracer: Tracer | None = None, spans_path: Path | None = None):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.tracer = tracer
        self.spans_path = spans_path
        self.process_span: int | None = None

    @staticmethod
    def argv(q: Query) -> list[str]:
        if q.kind == "max":
            args = ["solve-max", q.path, "--budget", str(q.budget)]
        elif q.kind == "cost":
            args = ["solve-cost", q.path, "--target", str(q.target)]
        else:
            args = ["verify", q.path, "--budget", str(q.budget)]
        return args + ["--format", "json"]

    def run(self, q: Query, traced: bool = False):
        if not traced:
            cmd = [sys.executable, "-m", "interdict", *self.argv(q)]
            return self._spawn(cmd)
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path),
               *self.argv(q)]
        self.spans_path.unlink(missing_ok=True)
        self.process_span = self.tracer.begin("cli.process")
        try:
            return self._spawn(cmd)
        finally:
            self.tracer.end(self.process_span)

    def _spawn(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT)

    def adopt_child_spans(self) -> None:
        try:
            with open(self.spans_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.tracer.absent.add("CLI child spans")
            return
        self.tracer.adopt(record, self.process_span)

    @staticmethod
    def outcome(q: Query, proc) -> Outcome:
        if proc.returncode != 0:
            return Outcome(error=f"exit {proc.returncode}: {proc.stderr[-200:]}")
        try:
            reported = None
            for line in proc.stderr.splitlines():
                if line.startswith("time_ms="):
                    reported = float(line.split("=", 1)[1]) / 1000
            report = json.loads(proc.stdout)
            if q.kind == "verify":
                return Outcome(report["dp"], report=report, reported_s=reported)
            return Outcome(report["value"], frozenset(report["upgraded"]),
                           report.get("kstar"), report=report,
                           reported_s=reported)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(error=f"unreadable CLI output: {exc!r}")


def attempt(runner, q: Query, traced: bool) -> tuple[float, Outcome]:
    """Run one op and time it; read its answer after the clock stops."""
    start = perf()
    try:
        raw = runner.run(q, traced)
    except Exception as exc:  # an op that raises is a counted failure
        return perf() - start, Outcome(error=f"{type(exc).__name__}: {exc}")
    elapsed = perf() - start
    try:
        return elapsed, runner.outcome(q, raw)
    except (AttributeError, TypeError) as exc:
        return elapsed, Outcome(error=f"unreadable result: {exc!r}")


def timed_loop(queries, seconds, op):
    """Replay whole rounds of ``queries`` for about ``seconds``.

    A new round starts only while more than half a round's time is left, so
    every run holds a whole number of rounds and the same mix of ops.
    ``op(index, query)`` returns a list of ``(index, seconds, outcome,
    traced)``. Repeated answers share the first one's upgrade set, so the
    records' memory does not grow with the op count.
    """
    records = []
    first: dict[int, Outcome] = {}
    start = perf()
    rounds = 0
    while True:
        for qi, q in enumerate(queries):
            for record in op(qi, q):
                out = record[2]
                seen = first.setdefault(qi, out)
                if out.upgraded is not None and out.upgraded == seen.upgraded:
                    out.upgraded = seen.upgraded
                records.append(record)
        rounds += 1
        elapsed = perf() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return records, elapsed, rounds


def check_query(q: Query, out: Outcome, ref: Library) -> list[str]:
    """Problems with one query's answer; empty when it is right."""
    inst = q.instance
    problems = []
    if q.kind == "verify":
        rep = out.report
        if rep.get("verdict") != "MATCH" or rep.get("dp") != rep.get("oracle"):
            problems.append(f"verify did not match: {rep}")
        expect = ref.solve_max(ref.parse(inst.text), q.budget).value
        if out.value != expect:
            problems.append(f"verify dp {out.value} != library {expect}")
        return problems
    s = out.upgraded
    if not s <= inst.non_leaves:
        problems.append(f"set holds leaves or unknown nodes: {sorted(s - inst.non_leaves)}")
    elif min_distance(inst, s) != out.value:
        problems.append(f"value {out.value} but the set gives {min_distance(inst, s)}")
    if q.kind == "max" and len(s) > q.budget:
        problems.append(f"{len(s)} upgrades over budget {q.budget}")
    if q.kind == "cost":
        if out.value < q.target:
            problems.append(f"value {out.value} below target {q.target}")
        if len(s) > out.kstar:
            problems.append(f"{len(s)} upgrades but kstar {out.kstar}")
        if out.kstar > 0:
            below = ref.solve_max(ref.parse(inst.text), out.kstar - 1).value
            if below >= q.target:
                problems.append(f"kstar {out.kstar} not minimal: "
                                f"budget {out.kstar - 1} reaches {below}")
    if out.report is not None:
        expect = ref.outcome(q, ref.run(q))
        if out.key() != expect.key():
            problems.append(f"CLI answer {out.key()} != library {expect.key()}")
        shape = (out.report.get("n"), out.report.get("non_leaves"))
        if shape != (inst.n, len(inst.non_leaves)):
            problems.append(f"CLI reports n, non_leaves = {shape}")
    return problems


def check(queries, records, ref: Library):
    """Check every op, outside the timed region.

    Returns the per-record failure flags, each query's answer (None when no
    op of it succeeded) and the distinct reasons for failures.
    """
    answers: list[Outcome | None] = [None] * len(queries)
    for qi, _, out, _ in records:
        if answers[qi] is None and out.error is None:
            answers[qi] = out
    problems = {}
    for qi, a in enumerate(answers):
        if a is not None:
            try:
                problems[qi] = check_query(queries[qi], a, ref)
            except Exception as exc:  # a malformed answer fails its query
                problems[qi] = [f"check raised {type(exc).__name__}: {exc}"]
    by_tree: dict[int, list[int]] = {}
    for qi, q in enumerate(queries):
        if q.kind == "max" and answers[qi] is not None:
            by_tree.setdefault(q.tree, []).append(qi)
    for members in by_tree.values():
        members.sort(key=lambda qi: queries[qi].budget)
        values = [answers[qi].value for qi in members]
        if values != sorted(values):
            for qi in members:
                problems[qi].append(f"values {values} fall as the budget grows")
    failed = [bool(out.error is not None or problems[qi]
                   or out.key() != answers[qi].key())
              for qi, _, out, _ in records]
    reasons = sorted({r[2].error for r in records if r[2].error}
                     | {p for ps in problems.values() for p in ps})
    return failed, answers, reasons


def answers_sha(queries, answers) -> str:
    h = hashlib.sha256()
    for qi, (q, a) in enumerate(zip(queries, answers)):
        h.update(f"{qi} {q.kind} {a and a.value} {a and a.kstar}\n".encode())
    return h.hexdigest()[:16]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops above it, and its value.

    With too few ops for that, the slowest op at percentile 100.
    """
    ordered = sorted(times)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    i = len(ordered) - beyond - 1
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def memory_pass(interdict, q: Query) -> dict:
    """Peak traced allocation of ``build_tree`` and ``build_tables``.

    Run once, after the timed ops, on the workload's largest instance, with
    ``tracemalloc`` on only here; numpy reports its buffers to it.
    """
    inst = q.instance
    records = [(i, inst.parent[i], inst.w[i], inst.u[i]) for i in range(2, inst.n + 1)]
    budget = q.budget if q.budget is not None else len(inst.non_leaves) // 2
    out = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = interdict.build_tree(records, 1)
        out["tree.build_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tables = interdict.build_tables(tree, budget)
        out["solver.tables_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        del tables
    except (AttributeError, TypeError) as exc:
        out["absent"] = f"memory pass: {exc!r}"
    finally:
        tracemalloc.stop()
    return out


def startup_s(cli: Cli, samples: int = 3) -> float:
    """Median wall time of ``python -c "import interdict"``."""
    times = []
    for _ in range(samples):
        start = perf()
        subprocess.run([sys.executable, "-c", "import interdict"], env=cli.env,
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)
        times.append(perf() - start)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, queries, records, extras) -> dict:
    """Per-layer metrics of the traced ops; times and counts are per op."""
    traced = [i for i, r in enumerate(records) if r[3]]
    n = len(traced)
    s = summarize(tracer.spans)
    tot, calls, own, counts = s["total"], s["calls"], s["self"], tracer.counts

    def per(x):
        return x / n

    cli_ops = [records[i][2] for i in traced if records[i][2].reported_s is not None]
    reported = sum(o.reported_s for o in cli_ops)
    traced_queries = [queries[records[i][0]] for i in traced]
    subsets = sum(sum(math.comb(len(q.instance.non_leaves), k)
                      for k in range(1, q.budget + 1))
                  for q in traced_queries if q.kind == "verify")
    cost_time = tot["budget.solve_cost"]
    m = {
        "instances.parse_s": per(tot["instances.parse"]),
        "instances.text_bytes": per(sum(len(q.instance.text) for q in traced_queries)),
        "tree.build_s": per(tot["tree.build"]),
        "tree.build_peak_mb": extras.get("tree.build_peak_mb", 0.0),
        "tree.path_entries": per(sum(q.instance.path_entries() for q in traced_queries)),
        "tree.evaluate_s": per(tot["tree.evaluate"]),
        "tree.evaluate_calls": per(calls["tree.evaluate"]),
        "tree.apply_s": per(tot["tree.apply"]),
        "decompose.decompose_s": per(tot["decompose.decompose"]),
        "decompose.calls": per(calls["decompose.decompose"]),
        "decompose.junctions": per(counts["decompose.junctions"]),
        "decompose.chains": per(counts["decompose.chains"]),
        "decompose.leaf_chains": per(counts["decompose.leaf_chains"]),
        "chains.g_table_s": per(tot["chains.g_table"]),
        "chains.g_table_calls": per(calls["chains.g_table"]),
        "chains.g_cells": per(counts["chains.g_cells"]),
        "solver.solve_max_s": per(tot["solver.solve_max"]),
        "solver.build_tables_s": per(tot["solver.build_tables"]),
        "solver.serial_s": per(tot["solver.serial"]),
        "solver.serial_calls": per(calls["solver.serial"]),
        "solver.parallel_s": per(tot["solver.parallel"]),
        "solver.parallel_calls": per(calls["solver.parallel"]),
        "solver.table_cells": per(counts["solver.table_cells"]),
        "solver.widest_row": counts["solver.widest_row"],
        "solver.tables_peak_mb": extras.get("solver.tables_peak_mb", 0.0),
        # Derived: solve_max minus its timed children (tables, evaluate,
        # apply), which leaves backpointer extraction.
        "solver.extract_s": per(own["solver.solve_max"]),
        "budget.solve_cost_s": per(cost_time),
        "budget.probes": per(s["probes"]),
        "budget.probe_s": per(s["probe_time"]),
        "budget.probe_share": s["probe_time"] / cost_time if cost_time else 0.0,
        "budget.useful_probe_ratio": (calls["budget.solve_cost"] / s["probes"]
                                      if s["probes"] else 0.0),
        "oracle.brute_force_s": per(tot["oracle.brute_force_max"]),
        "oracle.subsets": per(subsets),
        "cli.process_s": per(tot["cli.process"]),
        "cli.startup_s": extras.get("cli.startup_s", 0.0),
        "cli.reported_s": per(reported),
        "cli.overhead_s": per(tot["cli.process"] - reported),
    }
    op_time = tot["op"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per(s["layer_self"][layer])
        m[f"{layer}.share"] = s["layer_self"][layer] / op_time
    m["bench.share"] = s["layer_self"]["op"] / op_time
    return m


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def load_package():
    """Import ``interdict`` from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import interdict
    if Path(interdict.__file__).resolve().parent != SRC / "interdict":
        raise SystemExit(f"imported interdict from {interdict.__file__}, "
                         f"not from {SRC}")
    return interdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    interdict = load_package()
    queries = schedule(args.workload, args.seed)
    cli_workload = args.workload == "cli-small"
    args.workdir.mkdir(parents=True, exist_ok=True)
    if cli_workload:
        for qi, q in enumerate(queries):
            q.path = str(args.workdir / f"q{qi}.txt")
            Path(q.path).write_text(q.instance.text)
    ref = Library(interdict)
    tracer = Tracer() if args.trace else None
    if cli_workload:
        runner = Cli(tracer, args.workdir / "spans.json")
        runner.run(queries[0])
    else:
        runner = Library(interdict, tracer)
        warm = make_instance("uniform-attachment", 200, args.seed)
        runner.run(Query("max", 0, warm, budget=20))
        runner.run(Query("cost", 0, warm, target=target_at(warm, FRACTIONS[1])))
    if args.setup_only:
        print(json.dumps({"setup": "done"}))
        return 0

    extras = {}
    if tracer is None:
        def op(qi, q):
            return [(qi, *attempt(runner, q, False), False)]
    else:
        if cli_workload:
            extras["cli.startup_s"] = startup_s(runner)
        tracer.install()
        op_ids = itertools.count()

        def op(qi, q):
            # Pair each traced op with an untraced one on the same query,
            # alternating which goes first, for the tracing overhead.
            out = []
            for traced in ((False, True) if qi % 2 else (True, False)):
                if traced:
                    tracer.op = next(op_ids)
                    tracer.active = True
                    sid = tracer.begin("op")
                    dt, outcome = attempt(runner, q, True)
                    tracer.end(sid)
                    tracer.active = False
                    if cli_workload:
                        runner.adopt_child_spans()
                else:
                    dt, outcome = attempt(runner, q, False)
                out.append((qi, dt, outcome, traced))
            return out

    records, elapsed, rounds = timed_loop(queries, args.seconds, op)
    who = resource.RUSAGE_CHILDREN if cli_workload else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    failed, answers, reasons = check(queries, records, ref)
    plain = [r[1] for r in records if not r[3]]
    pct, tail_s = tail(plain)
    meta = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops": len(plain), "round_ops": len(queries),
            "tail_percentile": pct, "answers_sha": answers_sha(queries, answers),
            "fail_ratio": sum(failed) / len(records), "failures": reasons[:5],
            **machine()}
    if tracer is None:
        metrics = {"op_p50_s": statistics.median(plain), "op_tail_s": tail_s,
                   "ops_per_s": len(plain) / elapsed, "peak_rss_mb": peak_rss_mb,
                   "fail_ratio": meta["fail_ratio"]}
    else:
        tracer.uninstall()
        largest = max(queries, key=lambda q: q.instance.n)
        extras.update(memory_pass(interdict, largest))
        traced_times = [r[1] for r in records if r[3]]
        metrics = layer_metrics(tracer, queries, records, extras)
        metrics["trace.op_p50_s"] = statistics.median(traced_times)
        metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - statistics.median(plain)
        meta["absent"] = sorted(tracer.absent | ({extras["absent"]} if "absent" in extras else set()))
        meta["traced_ops"] = len(traced_times)
        meta["spans"] = len(tracer.spans)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}.json")
    print(json.dumps({"attempted": len(records), "failed": sum(failed),
                      "metrics": metrics, "meta": meta}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
