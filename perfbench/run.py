"""Benchmark of the interdict solvers, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload max-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in fresh worker processes (``worker.py``): first
several set-up-only workers, whose median wall time is ``setup_s``, then
the measured one. With ``--trace 0`` the run prints the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` it wraps the package's
layers and prints the per-layer metrics instead. Every answer is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit, and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
DEADLINE_S = 170  # a one-workload run must end within 180 s


def worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its result object."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace)]
    try:
        setup = []
        if not trace:
            for i in range(SETUP_SAMPLES):
                start = time.perf_counter()
                worker([*common, "--workdir", str(workdir / f"setup{i}"),
                        "--setup-only"], deadline)
                setup.append(time.perf_counter() - start)
        result = worker([*common, "--workdir", str(workdir / "run")], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    got = result["metrics"]
    if setup:
        got["setup_s"] = statistics.median(setup)
        result["meta"]["setup_samples"] = setup
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise SystemExit(f"{workload}: worker gave no {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {workload} meta {json.dumps(result['meta'], sort_keys=True)}")
    for name, value in got.items():
        print(f"{workload} {name} = {value:.6g} {units.get(name, 'ratio')}")
    result["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="interdict benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "interdict" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'interdict'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec)
               for w in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
