"""Command-line front end.

Subcommands: solve-max, solve-cost, gen, verify, inspect. Reports go to
stdout as line-oriented ``key=value`` text or as a single JSON object
(``--format json``); both are deterministic for fixed inputs and seeds.
Wall-clock timings are diagnostics, not results, and are written to
stderr.

Exit codes: 0 success, 2 invalid input, 3 unreachable target, 4 oracle
mismatch (verify only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .budget import solve_cost
from .decompose import Chain, decompose
from .errors import (InstanceError, InterdictError, TargetUnreachable,
                     _decimal)
from .generate import (DEFAULT_DELTA_MAX, DEFAULT_W_MAX, SHAPES,
                       GeneratorConfig, random_tree)
from .instances import format_instance, load_instance, scaled_integer
from .oracle import brute_force_cost, brute_force_max
from .solver import solve_max
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


def _load(args) -> RootedTree:
    return load_instance(args.instance, scale=getattr(args, "scale", None))


def _scaled_target(args) -> int:
    scale = getattr(args, "scale", None)
    if scale is None:
        try:
            return int(args.target)
        except ValueError:
            raise InstanceError(
                f"target must be an integer (got {args.target!r}); "
                "use --scale for decimals") from None
    return scaled_integer(args.target, scale, "target")


def _time_note(ms: float) -> None:
    print(f"time_ms={ms:.3f}", file=sys.stderr)


def cmd_solve_max(args) -> int:
    tree = _load(args)
    start = time.perf_counter()
    sol = solve_max(tree, args.budget)
    _time_note((time.perf_counter() - start) * 1000)
    report = {"command": "solve-max", "instance": args.instance,
              **_digest(tree), "budget": args.budget,
              "value": sol.value, "upgraded": sorted(sol.upgraded)}
    _emit(report, args.format)
    return EXIT_OK


def cmd_solve_cost(args) -> int:
    tree = _load(args)
    target = _scaled_target(args)
    start = time.perf_counter()
    result = solve_cost(tree, target)
    _time_note((time.perf_counter() - start) * 1000)
    report = {"command": "solve-cost", "instance": args.instance,
              **_digest(tree), "target": target,
              "kstar": result.kstar, "value": result.solution.value,
              "upgraded": sorted(result.solution.upgraded),
              "probes": len(result.query.probes)}
    _emit(report, args.format)
    return EXIT_OK


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


def cmd_verify(args) -> int:
    tree = _load(args)
    report = {"command": "verify", "instance": args.instance, **_digest(tree)}
    start = time.perf_counter()
    # The oracle runs first: it rejects a tree over its size limit at once,
    # before the DP spends any work on it.
    if args.budget is not None:
        oracle, _ = brute_force_max(tree, args.budget)
        dp = solve_max(tree, args.budget).value
        report.update(budget=args.budget, dp=dp, oracle=oracle)
        ok = dp == oracle
    else:
        target = _scaled_target(args)
        oracle = brute_force_cost(tree, target)
        dp = solve_cost(tree, target).kstar
        report.update(target=target, dp_kstar=dp, oracle_kstar=oracle)
        ok = dp == oracle
    _time_note((time.perf_counter() - start) * 1000)
    report["verdict"] = "MATCH" if ok else "MISMATCH"
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_MISMATCH


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


def cmd_inspect(args) -> int:
    tree = _load(args)
    dec = decompose(tree)
    chains = [_chain_report(c) for _, c in sorted(dec.chains.items())]
    report = {"command": "inspect", "instance": args.instance, **_digest(tree),
              "branching": sorted(dec.branching),
              "order": list(dec.order),
              "layers": {str(v): dec.layer[v] for v in sorted(dec.layer)},
              "chains": chains}
    if args.format == "json":
        _emit(report, "json")
    else:
        lines = [f"{key}={_fmt_value(report[key])}" for key in (
            "command", "instance", "n", "leaves", "non_leaves", "branching",
            "order")]
        lines += [" ".join(f"{k}={_fmt_value(v)}" for k, v in chain.items())
                  for chain in chains]
        print("\n".join(lines))
    return EXIT_OK


def _nonneg(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=_positive, default=None,
                        help="fixed-point factor allowing decimal weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interdict",
        description="Exact shortest-path interdiction on rooted trees "
                    "via node upgrades.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-max", help="maximize the shortest root-leaf "
                                         "distance under an upgrade budget")
    p.add_argument("instance")
    p.add_argument("--budget", type=_nonneg, required=True)
    _add_format(p)
    _add_scale(p)
    p.set_defaults(func=cmd_solve_max)

    p = sub.add_parser("solve-cost", help="fewest upgrades reaching a "
                                          "target distance")
    p.add_argument("instance")
    p.add_argument("--target", required=True)
    _add_format(p)
    _add_scale(p)
    p.set_defaults(func=cmd_solve_cost)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--nodes", type=_positive, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--wmax", type=_nonneg, default=DEFAULT_W_MAX)
    p.add_argument("--dmax", type=_nonneg, default=DEFAULT_DELTA_MAX)
    p.add_argument("--shape", choices=SHAPES, default="uniform-attachment")
    p.add_argument("-o", "--out", default=None,
                   help="output file (default: instance text to stdout)")
    _add_format(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="cross-check the solver against the "
                                      "brute-force oracle")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=_nonneg, default=None)
    group.add_argument("--target", default=None)
    _add_format(p)
    _add_scale(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inspect", help="print layers, chains and junction "
                                       "order for debugging")
    p.add_argument("instance")
    _add_format(p)
    _add_scale(p)
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
