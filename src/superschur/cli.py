"""Command-line front end: multiplicities, series, verification suites."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import signal
import sys

from .partitions import Hook, Partition, parse_partition
from .poincare import (budzik_suite, lemmas_suite, multiplicity, p_series,
                       univariate_coefficients)
from .qseries import qidentities_suite


def _parse_hook(text: str) -> Hook:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"hook must be 'k,l': {text!r}")
    try:
        return Hook(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad hook {text!r}: {exc}") from None


def _parse_lambda(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from None


def _parse_hooks(text: str) -> list[Hook]:
    hooks = [_parse_hook(chunk) for chunk in text.replace(";", " ").split()]
    if not hooks:
        raise argparse.ArgumentTypeError(f"need at least one hook 'k,l': {text!r}")
    return hooks


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged, and building it costs more than ten parses.
    Every parse shares the defaults, so they are immutable."""
    parser = argparse.ArgumentParser(
        prog="superschur",
        description="Exact hook-Schur multiplicities, Poincare series, and "
                    "verification suites.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", dest="fmt", choices=formats, default="text")

    p = sub.add_parser("mlambda", help="tensor-sum multiplicity of a character")
    p.add_argument("--lambda", dest="lam", required=True, type=_parse_lambda)
    p.add_argument("--hook", required=True, type=_parse_hook)
    p.add_argument("--bar", action="store_true",
                   help="concomitant variant (restricted one level down)")
    p.set_defaults(route="residue")  # a character sum on either route
    add_common(p)

    p = sub.add_parser("mprime", help="multiplicity jump against the next smaller hook")
    p.add_argument("--lambda", dest="lam", required=True, type=_parse_lambda)
    p.add_argument("--hook", required=True, type=_parse_hook)
    p.add_argument("--route", choices=["residue", "char"], default="residue")
    p.add_argument("--bar", action="store_true")
    add_common(p)

    p = sub.add_parser("series", help="Poincare series coefficients")
    p.add_argument("--mode", choices=["plain", "prime", "bar", "barprime"],
                   required=True)
    p.add_argument("--hook", required=True, type=_parse_hook)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--route", choices=["residue", "char"], default="residue")
    add_common(p)

    # each suite declares only the flags it reads, so any other exits 2
    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    p = suites.add_parser("budzik", help="jump by residue against characters")
    p.add_argument("--max-size", type=_at_least(0), default=4)
    p.add_argument("--hooks", type=_parse_hooks, default=(Hook(1, 1),))
    p.add_argument("--jobs", type=_at_least(1), default=1)
    add_common(p, formats=("text", "json"))

    p = suites.add_parser("lemmas", help="bar jumps and derivative slices")
    p.add_argument("--max-size", type=_at_least(0), default=4)
    p.add_argument("--hooks", type=_parse_hooks, default=(Hook(1, 1),))
    p.add_argument("--degree", type=_at_least(1), default=4)
    add_common(p, formats=("text", "json"))

    p = suites.add_parser("qidentities",
                          help="limit identities and one-variable closed forms")
    p.add_argument("--degree", type=int, default=20,
                   help="degree of the two limit identities; the closed forms "
                        "are checked through a fixed degree 12")
    p.add_argument("--max-kl", type=_at_least(0), default=3)
    add_common(p, formats=("text", "json"))

    return parser


def _run_value(args, out) -> int:
    if args.subcommand == "mlambda":
        mode = "bar" if args.bar else "plain"
    else:
        mode = "bar_prime" if args.bar else "prime"
    value = multiplicity(mode, args.lam, args.hook, route=args.route)
    print(json.dumps(value) if args.fmt == "json" else value, file=out)
    return 0


def _run_series(args, out) -> int:
    mode = "bar_prime" if args.mode == "barprime" else args.mode
    series = p_series(mode, args.hook, args.n, args.m, args.degree,
                      route=args.route)
    if args.n + args.m == 1:
        coeffs = univariate_coefficients(series, args.degree)
        if args.fmt == "json":
            print(json.dumps(coeffs), file=out)
        elif args.fmt == "csv":
            writer = csv.writer(out)
            writer.writerow(["degree", "coefficient"])
            for d, c in enumerate(coeffs):
                writer.writerow([d, c])
        else:
            print(" ".join(str(c) for c in coeffs), file=out)
    else:
        if args.fmt == "json":
            print(json.dumps([{"exponents": list(e), "coeff": c}
                              for e, c in series.sorted_terms()]), file=out)
        elif args.fmt == "csv":
            writer = csv.writer(out)
            writer.writerow(list(series.table.names) + ["coefficient"])
            for e, c in series.sorted_terms():
                writer.writerow(list(e) + [c])
        else:
            print(str(series), file=out)
    return 0


def _emit_reports(name: str, reports: list[dict], fmt: str, out) -> int:
    failures = sum(1 for r in reports if not r.get("pass", False))
    summary = {"suite": name, "cases": len(reports), "failures": failures}
    if fmt == "json":
        print(json.dumps({"summary": summary, "reports": reports}), file=out)
    else:
        print(json.dumps(summary), file=out)
        for r in reports:
            print(json.dumps(r), file=out)
    return 1 if failures else 0


def _run_verify(args, out) -> int:
    if args.suite == "budzik":
        reports = budzik_suite(args.max_size, args.hooks, jobs=args.jobs)
    elif args.suite == "lemmas":
        reports = lemmas_suite(args.max_size, args.hooks, args.degree)
    else:
        reports = qidentities_suite(args.degree, args.max_kl)
    return _emit_reports(args.suite, reports, args.fmt, out)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.subcommand in ("mlambda", "mprime"):
            code = _run_value(args, out)
        elif args.subcommand == "series":
            code = _run_series(args, out)
        else:
            code = _run_verify(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    # A reader that closes the pipe early (`| head`) ends the command
    # silently, as for other Unix filters, instead of with a traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
