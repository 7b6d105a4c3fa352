"""Command-line front end.

Subcommands: solve-max, solve-cost, gen, verify, inspect. Reports go to
stdout as line-oriented ``key=value`` text or as a single JSON object
(``--format json``); both are deterministic for fixed inputs and seeds.

solve-max, solve-cost and verify also write ``time_ms=`` to stderr: the
wall time, in milliseconds, of the command's own work after the instance
is loaded, which is the parse of ``--target`` and the solve (for verify,
the oracle and the solve). Loading the instance and writing the report
are outside it. It is a diagnostic, not a result.

Exit codes: 0 success, 2 invalid input, 3 unreachable target, 4 oracle
mismatch (verify only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (InstanceError, InterdictError, TargetUnreachable,
                     _decimal)
from .generate import (DEFAULT_DELTA_MAX, DEFAULT_W_MAX, SHAPES,
                       GeneratorConfig, random_tree)
from .instances import format_instance, load_instance, scaled_integer
from .oracle import brute_force_cost, brute_force_max
from .solver import Chain, Decomposition, decompose, solve_cost, solve_max
from .tree import RootedTree

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREACHABLE = 3
EXIT_MISMATCH = 4


def _fmt_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in report.items():
            print(f"{key}={_fmt_value(value)}")


def _digest(tree: RootedTree) -> dict:
    return {
        "n": tree.node_count,
        "leaves": len(tree.leaves),
        "non_leaves": len(tree.non_leaves),
    }


def _run(args) -> int:
    """Load the instance, time ``args.fields(tree, args)`` alone and report
    its fields after the common head; a ``MISMATCH`` verdict exits 4."""
    tree = load_instance(args.instance, args.scale)
    start = time.perf_counter()
    fields = args.fields(tree, args)
    ms = (time.perf_counter() - start) * 1000
    print(f"time_ms={ms:.3f}", file=sys.stderr)
    _emit({"command": args.command, "instance": args.instance,
           **_digest(tree), **fields}, args.format)
    return EXIT_MISMATCH if fields.get("verdict") == "MISMATCH" else EXIT_OK


def _max_fields(tree: RootedTree, args) -> dict:
    sol = solve_max(tree, args.budget)
    return {"budget": args.budget, "value": sol.value,
            "upgraded": sorted(sol.upgraded)}


def _cost_fields(tree: RootedTree, args) -> dict:
    target = scaled_integer(args.target, args.scale, "target")
    result = solve_cost(tree, target)
    return {"target": target, "kstar": result.kstar,
            "value": result.solution.value,
            "upgraded": sorted(result.solution.upgraded)}


def _verify_fields(tree: RootedTree, args) -> dict:
    # The oracle runs first: it rejects a tree over its size limit at once,
    # before the DP spends any work on it.
    if args.budget is not None:
        oracle, _ = brute_force_max(tree, args.budget)
        dp = solve_max(tree, args.budget).value
        fields = {"budget": args.budget, "dp": dp, "oracle": oracle}
    else:
        target = scaled_integer(args.target, args.scale, "target")
        oracle = brute_force_cost(tree, target)
        dp = solve_cost(tree, target).kstar
        fields = {"target": target, "dp_kstar": dp, "oracle_kstar": oracle}
    fields["verdict"] = "MATCH" if dp == oracle else "MISMATCH"
    return fields


def cmd_gen(args) -> int:
    config = GeneratorConfig(n=args.nodes, seed=args.seed, w_max=args.wmax,
                             delta_max=args.dmax, shape=args.shape)
    tree = random_tree(config)
    text = format_instance(tree)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        report = {"command": "gen", "out": args.out, **_digest(tree),
                  "seed": args.seed, "shape": args.shape,
                  "wmax": args.wmax, "dmax": args.dmax}
        _emit(report, args.format)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _chain_report(c: Chain) -> dict:
    """One chain's inspect fields; a length with more digits than Python
    prints is an :class:`InstanceError`."""
    longest = max(c.w_sum, c.head_delta, *c.tail_deltas)
    try:
        str(longest)
    except ValueError:
        raise InstanceError(f"chain to {c.bottom}: length {_decimal(longest)} "
                            "is too long to print") from None
    return {"bottom": c.bottom, "top": c.top, "beta": c.beta,
            "w_sum": c.w_sum, "head_delta": c.head_delta,
            "tail_deltas": list(c.tail_deltas),
            "tail_owners": list(c.tail_owners)}


def _layers(tree: RootedTree, dec: Decomposition) -> dict[int, int]:
    """The paper's layer of every node: the number of junctions on its root
    path, counting the node itself. The root is layer 1; each non-root
    junction (undirected degree > 2) adds one."""
    layer = {tree.root: 1}
    for c in tree.bfs_order[1:]:
        layer[c] = layer[tree.parent[c]] + (c in dec.cd)
    return layer


def cmd_inspect(args) -> int:
    tree = load_instance(args.instance, args.scale)
    dec = decompose(tree)
    layer = _layers(tree, dec)
    chains = [_chain_report(c) for _, c in sorted(dec.chains.items())]
    # The paper's junction order, deepest layer first (ties: descending
    # id); the solver only needs junctions below before those above.
    head = {"command": "inspect", "instance": args.instance, **_digest(tree),
            "branching": sorted(v for v in dec.cd if v != tree.root),
            "order": sorted(dec.cd, key=lambda v: (-layer[v], -v))}
    if args.format == "json":
        _emit({**head, "layers": {str(v): layer[v] for v in sorted(layer)},
               "chains": chains}, "json")
    else:
        _emit(head, "text")
        for chain in chains:
            print(" ".join(f"{k}={_fmt_value(v)}" for k, v in chain.items()))
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return number
    return integer


def build_parser() -> argparse.ArgumentParser:
    # Shared arguments, declared once: --format for every subcommand, and
    # the instance file with its --scale for those that read one.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    reads = argparse.ArgumentParser(add_help=False, parents=[fmt])
    reads.add_argument("instance")
    reads.add_argument("--scale", type=_at_least(1), default=None,
                       help="fixed-point factor allowing decimal weights")

    parser = argparse.ArgumentParser(
        prog="interdict",
        description="Exact shortest-path interdiction on rooted trees "
                    "via node upgrades.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-max", parents=[reads],
                       help="maximize the shortest root-leaf distance under "
                            "an upgrade budget")
    p.add_argument("--budget", type=_at_least(0), required=True)
    p.set_defaults(func=_run, fields=_max_fields)

    p = sub.add_parser("solve-cost", parents=[reads],
                       help="fewest upgrades reaching a target distance")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_run, fields=_cost_fields)

    p = sub.add_parser("gen", parents=[fmt], help="generate a random instance")
    p.add_argument("--nodes", type=_at_least(2), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--wmax", type=_at_least(0), default=DEFAULT_W_MAX)
    p.add_argument("--dmax", type=_at_least(0), default=DEFAULT_DELTA_MAX)
    p.add_argument("--shape", choices=SHAPES, default="uniform-attachment")
    p.add_argument("-o", "--out", default=None,
                   help="output file (default: instance text to stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[reads], help="cross-check the "
                       "solver against the brute-force oracle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=_at_least(0), default=None)
    group.add_argument("--target", default=None)
    p.set_defaults(func=_run, fields=_verify_fields)

    p = sub.add_parser("inspect", parents=[reads], help="print chains and "
                       "junction order for debugging; --format json adds "
                       "each node's layer")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Before Python 3.12, argparse parses "--budget=--" as an empty list,
    # skipping the option's type and choices; no option here takes a list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        return args.func(args)
    except TargetUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (InterdictError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
