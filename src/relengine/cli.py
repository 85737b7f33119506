"""Command line surface.

Subcommands: compute, explain, crosscheck, bench, generate. ``compute``
prints the formatted reliability and ``bench`` CSV rows; with ``--json``
each prints JSON instead, ``compute`` one object whose ``counters`` is
``null`` for the oracle. Exit codes:
0 on success, 1 for parse or validation failures, 2 for bad usage
(argparse, including a ``--budget`` that is not a positive number of
seconds or a ``--tolerance`` that is not a number of at least 0), 3 when
a backend refuses a network beyond a fixed cap (more than 30 arcs in
the oracle's whole network or in one qb2 stage, or more than 1,114,111
nodes for qbat), 4 when a crosscheck exceeds
its tolerance, 5 when ``compute --budget SECONDS`` runs out of time
before the answer is known.
"""

from __future__ import annotations

import argparse
import csv
import json
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
    """Rendering with 10 significant digits, fixed-point down to 1e-4.

    The digits are counted after rounding, so 0.99999999997 prints as
    1.000000000, not with an eleventh digit. Below 1e-4 after that
    rounding the value prints in exponent form, so 2^-1000 prints as
    9.332636185e-302, not as some three hundred zeros.
    """
    if value <= 0.0:
        return "0.000000000"
    text = f"{value:.9e}"
    exponent = int(text.split("e")[1])
    if exponent < -4:
        return text
    return f"{value:.{max(0, 9 - exponent)}f}"


def _load_network(path: str):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"relengine: cannot read {path}: {reason}", file=sys.stderr)
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


def _cmd_compute(args) -> int:
    network = _load_network(args.file)
    if network is None:
        return EXIT_INVALID_INPUT
    result = bench.run_backend(network, args.backend, budget_s=args.budget)
    if result.status != "ok":
        print(f"relengine: {result.detail}", file=sys.stderr)
        return EXIT_CAP if result.status == "skipped" else EXIT_BUDGET
    if args.json:
        counters = result.counters
        print(json.dumps({
            "reliability": result.reliability,
            "formatted": format_reliability(result.reliability),
            "backend": result.backend,
            "wall_time_s": result.wall_time_s,
            "network_digest": network_digest(network),
            "counters": counters.as_dict() if counters is not None else None,
        }))
    else:
        print(format_reliability(result.reliability))
    return EXIT_OK


def _cmd_explain(args) -> int:
    network = _load_network(args.file)
    if network is None:
        return EXIT_INVALID_INPUT
    print(explain_decomposition(network))
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    network = _load_network(args.file)
    if network is None:
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


def _cmd_bench(args) -> int:
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    for i, name in enumerate(backends):
        if name not in bench.BACKENDS:
            print(f"relengine: unknown backend {name!r}", file=sys.stderr)
            return EXIT_USAGE
        if name in backends[:i]:
            print(f"relengine: backend {name!r} given twice", file=sys.stderr)
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
    if args.json:
        print(json.dumps(rows))
        return EXIT_OK
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        if row["reliability"] is not None:
            row["reliability"] = format_reliability(row["reliability"])
        row["wall_time_s"] = f"{row['wall_time_s']:.6f}"
        writer.writerow(row)
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        spec = generators.GeneratorSpec(args.family, args.k, args.p, args.seed)
        network = generators.build(spec)
    except (ValueError, NetworkError) as exc:
        print(f"relengine: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    # with a seed every arc's probability is drawn, so p names none of them
    draw = f"p={args.p!r}" if args.seed is None else f"seed={args.seed}"
    comment = f"family={args.family} k={args.k} {draw}"
    sys.stdout.write(format_network(network, comment=comment))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relengine",
        description="Exact two-terminal reliability of binary-state networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="reliability of one network file")
    compute.add_argument("file")
    compute.add_argument("--backend", choices=bench.BACKENDS, default="qb2")
    compute.add_argument("--json", action="store_true")
    compute.add_argument(
        "--budget", type=_positive_seconds, default=None, metavar="SECONDS",
        help="wall-clock allowance; exit 5 if it runs out",
    )
    compute.set_defaults(handler=_cmd_compute)

    explain = sub.add_parser("explain", help="print a network's qb2 decomposition")
    explain.add_argument("file")
    explain.set_defaults(handler=_cmd_explain)

    cross = sub.add_parser(
        "crosscheck", help="run every backend and compare the answers"
    )
    cross.add_argument("file")
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
    bench_parser.add_argument("--json", action="store_true")
    bench_parser.set_defaults(handler=_cmd_bench)

    generate = sub.add_parser("generate", help="write a family instance to stdout")
    generate.add_argument("--family", choices=generators.FAMILIES, required=True)
    generate.add_argument("--k", type=int, required=True)
    generate.add_argument("--p", type=float, required=True)
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(handler=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
