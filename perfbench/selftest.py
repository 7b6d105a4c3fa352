"""Self-test of the benchmark's checks and tracer.

Run from the repository root: ``python3 perfbench/selftest.py``. It shows
that

* a corrupted ``solve_max`` value and a non-minimal ``solve_cost`` budget
  each make the run report failed ops (``fail_ratio`` above 0), and
* a wrapped name that no longer exists, as after a refactor, is reported
  as absent while the traced run still completes with every metric.

Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import spans
import worker

WORKDIR = worker.ROOT / ".perfbench-work" / "selftest"


def run_worker(*args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main(["--seed", "3", "--seconds", "0.1", "--workdir",
                     str(WORKDIR), *args])
    return json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def patched(obj, name, value):
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


def main() -> int:
    interdict = worker.load_package()
    ok = True

    def report(case: str, passed: bool, detail) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {case}: {detail}")

    solve_max, solve_cost = interdict.solve_max, interdict.solve_cost

    def off_by_one(tree, budget):
        sol = solve_max(tree, budget)
        return interdict.Solution(sol.value + 1, sol.upgraded, sol.applied_weights)

    def one_too_many(tree, target):
        res = solve_cost(tree, target)
        return interdict.CostResult(res.kstar + 1, res.solution, res.query)

    try:
        clean = run_worker("--workload", "max-wide")
        report("clean run has no failures", clean["failed"] == 0,
               f"{clean['failed']}/{clean['attempted']} failed")
        with patched(interdict, "solve_max", off_by_one):
            bad = run_worker("--workload", "max-wide")
        report("corrupted solve_max value is caught",
               bad["metrics"]["fail_ratio"] > 0,
               f"fail_ratio={bad['metrics']['fail_ratio']}, "
               f"first reason: {bad['meta']['failures'][:1]}")
        with patched(interdict, "solve_cost", one_too_many):
            bad = run_worker("--workload", "cost-mixed")
        report("non-minimal solve_cost budget is caught",
               bad["metrics"]["fail_ratio"] > 0,
               f"fail_ratio={bad['metrics']['fail_ratio']}, "
               f"first reason: {bad['meta']['failures'][:1]}")

        gone = (("interdict.solver", "combine_gone", "solver.parallel", None),
                ("interdict.gone_module", "decompose", "decompose.decompose", None))
        install = spans.Tracer.install

        def install_with_gone(self, targets=spans.TARGETS):
            install(self, targets + gone)

        with patched(spans.Tracer, "install", install_with_gone):
            traced = run_worker("--workload", "max-wide", "--trace", "1")
        absent = traced["meta"]["absent"]
        report("missing wrapped names are reported absent",
               {"interdict.solver.combine_gone",
                "interdict.gone_module.decompose"} <= set(absent)
               and "solver.serial_s" in traced["metrics"],
               f"absent={absent}")

        tracer = spans.Tracer()
        tracer.active = True
        tracer.wrap(lambda: None, "solver.serial", spans._slice_counts)()
        report("a counter whose result lost its fields is reported absent",
               "counter _slice_counts" in tracer.absent, sorted(tracer.absent))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
