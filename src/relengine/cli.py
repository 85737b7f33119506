"""Command line surface.

Subcommands: compute, crosscheck, bench, generate. Exit codes: 0 on
success, 1 for parse or validation failures, 2 for bad usage (argparse,
including a ``--budget`` that is not a positive number of seconds or a
``--tolerance`` that is not a number of at least 0), 3
when a backend refuses to enumerate more than the fixed cap of 30 arcs
(the oracle's whole network, or one qb2 stage), 4 when a crosscheck
exceeds its tolerance, 5 when ``compute --budget SECONDS`` runs out of
time before the answer is known.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import bat, bench, generators
from .decompose import explain_decomposition
from .network import NetworkError, format_network, network_digest, parse_network

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_BUDGET = 5


def format_reliability(value: float) -> str:
    """Fixed-point rendering with 10 significant digits."""
    if value <= 0.0:
        return "0.000000000"
    decimals = max(0, 9 - math.floor(math.log10(value)))
    return f"{value:.{decimals}f}"


def _load_network(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"relengine: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None
    try:
        return parse_network(text)
    except NetworkError as exc:
        print(f"relengine: {path}: {exc}", file=sys.stderr)
        return None


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"budget must be positive, not {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be at least 0, not {text}")
    return value


def _spec_from_args(args) -> generators.GeneratorSpec:
    return generators.GeneratorSpec(args.family, args.k, args.p, args.seed)


def _cmd_compute(args) -> int:
    network = _load_network(args.file)
    if network is None:
        return EXIT_INVALID_INPUT
    if args.explain_decomposition:
        print(explain_decomposition(network))
        return EXIT_OK
    result = bench.run_backend(
        network, args.backend, budget_s=args.budget, with_counters=args.counters
    )
    if result.status != "ok":
        print(f"relengine: {result.detail}", file=sys.stderr)
        return EXIT_CAP if result.status == "skipped" else EXIT_BUDGET
    if args.json:
        payload = {
            "reliability": result.reliability,
            "formatted": format_reliability(result.reliability),
            "backend": result.backend,
            "wall_time_s": result.wall_time_s,
            "network_digest": network_digest(network),
        }
        if args.counters:
            payload["counters"] = result.counters
        print(json.dumps(payload))
        return EXIT_OK
    print(format_reliability(result.reliability))
    if args.counters:
        if result.counters:
            width = max(len(name) for name in result.counters)
            for name, value in result.counters.items():
                print(f"{name:<{width}}  {value}")
        else:
            print(f"(no counters for backend {result.backend})")
    if args.show_time:
        print(f"wall_time_s  {result.wall_time_s:.6f}")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    if args.file is not None:
        network = _load_network(args.file)
        if network is None:
            return EXIT_INVALID_INPUT
    else:
        try:
            network = generators.build(_spec_from_args(args))
        except ValueError as exc:
            print(f"relengine: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    try:
        report = bench.crosscheck(network, tolerance=args.tolerance)
    except bat.EnumerationCapExceeded as exc:
        print(f"relengine: {exc}", file=sys.stderr)
        return EXIT_CAP
    for result in report.results:
        print(f"{result.backend:<7} {format_reliability(result.reliability)}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"max delta {report.max_delta:.3e} (tolerance {report.tolerance:.3e}) {verdict}")
    return EXIT_OK if report.passed else EXIT_MISMATCH


_BENCH_FIELDS = (
    "family", "k", "nodes", "arcs", "backend", "status", "reliability",
    "wall_time_s", "detail",
)


def _cmd_bench(args) -> int:
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    for name in backends:
        if name not in bench.BACKENDS:
            print(f"relengine: unknown backend {name!r}", file=sys.stderr)
            return EXIT_USAGE
    if not backends or args.k_min < 1 or args.k_max < args.k_min:
        print("relengine: empty sweep", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = bench.bench_sweep(
            args.family, args.k_min, args.k_max, args.p, backends,
            budget_s=args.budget, seed=args.seed,
        )
    except (ValueError, NetworkError) as exc:
        print(f"relengine: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    dicts = [row.as_dict() for row in rows]
    for row in dicts:
        if row["reliability"] is not None:
            row["reliability"] = format_reliability(row["reliability"])
        row["wall_time_s"] = f"{row['wall_time_s']:.6f}"
    if args.json:
        print(json.dumps(dicts))
    elif args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=_BENCH_FIELDS)
        writer.writeheader()
        writer.writerows(dicts)
    else:
        widths = {
            name: max(len(name), *(len(str(row[name] or "")) for row in dicts))
            for name in _BENCH_FIELDS
        }
        print("  ".join(name.ljust(widths[name]) for name in _BENCH_FIELDS))
        for row in dicts:
            print(
                "  ".join(
                    str(row[name] if row[name] is not None else "-").ljust(widths[name])
                    for name in _BENCH_FIELDS
                )
            )
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        network = generators.build(_spec_from_args(args))
    except ValueError as exc:
        print(f"relengine: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    seed_note = "" if args.seed is None else f" seed={args.seed}"
    comment = f"family={args.family} k={args.k} p={args.p!r}{seed_note}"
    sys.stdout.write(format_network(network, comment=comment))
    return EXIT_OK


def _add_generator_arguments(parser, required: bool) -> None:
    parser.add_argument("--family", choices=generators.FAMILIES, required=required)
    parser.add_argument("--k", type=int, required=required)
    parser.add_argument("--p", type=float, required=required)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relengine",
        description="Exact two-terminal reliability of binary-state networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="reliability of one network file")
    compute.add_argument("file")
    compute.add_argument("--backend", choices=bench.BACKENDS, default="qb2")
    compute.add_argument("--counters", action="store_true")
    compute.add_argument("--time", dest="show_time", action="store_true")
    compute.add_argument("--json", action="store_true")
    compute.add_argument("--explain-decomposition", action="store_true")
    compute.add_argument(
        "--budget", type=_positive_seconds, default=None, metavar="SECONDS",
        help="wall-clock allowance; exit 5 if it runs out",
    )
    compute.set_defaults(handler=_cmd_compute)

    cross = sub.add_parser(
        "crosscheck", help="run every backend and compare the answers"
    )
    cross.add_argument("file", nargs="?", default=None)
    _add_generator_arguments(cross, required=False)
    cross.add_argument("--tolerance", type=_tolerance, default=bench.DEFAULT_TOLERANCE)
    cross.set_defaults(handler=_cmd_crosscheck)

    bench_parser = sub.add_parser("bench", help="timing sweep over a family")
    bench_parser.add_argument("--family", choices=generators.FAMILIES, required=True)
    bench_parser.add_argument("--k-min", type=int, required=True)
    bench_parser.add_argument("--k-max", type=int, required=True)
    bench_parser.add_argument("--p", type=float, required=True)
    bench_parser.add_argument(
        "--backends", default=",".join(bench.BACKENDS),
        help="comma separated subset of " + ",".join(bench.BACKENDS),
    )
    bench_parser.add_argument(
        "--budget", type=_positive_seconds, default=bench.DEFAULT_BUDGET_S,
        metavar="SECONDS", help="wall-clock allowance per backend run",
    )
    bench_parser.add_argument("--seed", type=int, default=None)
    output = bench_parser.add_mutually_exclusive_group()
    output.add_argument("--csv", action="store_true")
    output.add_argument("--json", action="store_true")
    bench_parser.set_defaults(handler=_cmd_bench)

    generate = sub.add_parser("generate", help="write a family instance to stdout")
    _add_generator_arguments(generate, required=True)
    generate.set_defaults(handler=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "crosscheck" and args.file is None and args.family is None:
        parser.error("crosscheck needs a file or --family/--k/--p")
    if args.command == "crosscheck" and args.file is None:
        if args.k is None or args.p is None:
            parser.error("generator mode needs --k and --p")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
