"""Command-line front end: multiplicities, series, verification suites."""

from __future__ import annotations

import argparse
import csv
import json
import signal
import sys

from .characters import m_bar_lambda, m_lambda
from .partitions import Hook, parse_partition
from .poincare import (budzik_suite, check_derivative_relation, m_bar_prime_char,
                       m_prime_char, p_series, univariate_coefficients)
from .qseries import check_limit_identity, closed_form_series, gf_partitions
from .residue import m_bar_prime_residue, m_prime_residue


def _parse_hook(text: str) -> Hook:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"hook must be 'k,l': {text!r}")
    return Hook(int(parts[0]), int(parts[1]))


def _parse_hooks(text: str) -> list[Hook]:
    return [_parse_hook(chunk) for chunk in text.replace(";", " ").split()]


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superschur",
        description="Exact hook-Schur multiplicities, Poincare series, and "
                    "verification suites.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", dest="fmt", choices=formats, default="text")

    p = sub.add_parser("mlambda", help="tensor-sum multiplicity of a character")
    p.add_argument("--lambda", dest="lam", required=True, type=parse_partition)
    p.add_argument("--hook", required=True, type=_parse_hook)
    p.add_argument("--bar", action="store_true",
                   help="concomitant variant (restricted one level down)")
    add_common(p)

    p = sub.add_parser("mprime", help="multiplicity jump against the next smaller hook")
    p.add_argument("--lambda", dest="lam", required=True, type=parse_partition)
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
    p.add_argument("--dump-poly", action="store_true",
                   help="print the series termwise in graded-lex order")
    add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("verify_what", choices=["budzik", "lemmas", "qidentities"])
    p.add_argument("--max-size", type=_at_least(0), default=4)
    p.add_argument("--hooks", type=_parse_hooks, default=[Hook(1, 1)])
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--max-kl", type=_at_least(0), default=3)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    add_common(p, formats=("text", "json"))

    return parser


def _emit_value(value: int, fmt: str, out) -> None:
    print(json.dumps(value) if fmt == "json" else value, file=out)


def _run_mlambda(args, out) -> int:
    fn = m_bar_lambda if args.bar else m_lambda
    _emit_value(fn(args.lam, args.hook), args.fmt, out)
    return 0


def _run_mprime(args, out) -> int:
    if args.route == "residue":
        fn = m_bar_prime_residue if args.bar else m_prime_residue
    else:
        fn = m_bar_prime_char if args.bar else m_prime_char
    _emit_value(fn(args.lam, args.hook), args.fmt, out)
    return 0


def _run_series(args, out) -> int:
    mode = "bar_prime" if args.mode == "barprime" else args.mode
    series = p_series(mode, args.hook, args.n, args.m, args.degree,
                      route=args.route)
    if args.dump_poly:
        for exps, coeff in series.sorted_terms():
            factors = [f"{v}^{a}" for v, a in zip(series.table.names, exps) if a]
            print(f"{coeff} * " + (" ".join(factors) if factors else "1"), file=out)
        return 0
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
        rows = [{"exponents": list(e), "coeff": c} for e, c in series.sorted_terms()]
        if args.fmt == "json":
            print(json.dumps(rows), file=out)
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
    if args.verify_what == "budzik":
        reports = budzik_suite(args.max_size, args.hooks, jobs=args.jobs)
        return _emit_reports("budzik", reports, args.fmt, out)

    if args.verify_what == "lemmas":
        degree = args.degree if args.degree is not None else 4
        reports = []
        from .partitions import enumerate_partitions
        for h in args.hooks:
            for d in range(args.max_size + 1):
                for lam in enumerate_partitions(d):
                    lhs = m_bar_prime_residue(lam, h)
                    rhs = m_bar_prime_char(lam, h)
                    reports.append({"check": "bar_jump", "lambda": list(lam),
                                    "k": h.k, "l": h.l, "lhs": lhs, "rhs": rhs,
                                    "pass": lhs == rhs})
            for primed in (False, True):
                ok, rep = check_derivative_relation(h, 1, degree, primed)
                reports.append({"check": "derivative", **rep})
        return _emit_reports("lemmas", reports, args.fmt, out)

    # qidentities
    degree = args.degree if args.degree is not None else 20
    reports = []
    for which, n in (("selfconjugate_sum", None), ("shifted_sum", 1)):
        ok, rep = check_limit_identity(which, degree, n=n)
        reports.append({"check": "limit_identity", "which": which, "n": n,
                        "degree": degree, "pass": ok,
                        "first_discrepancy": rep["first_discrepancy"]})
    for k in range(args.max_kl + 1):
        for ell in range(args.max_kl + 1):
            if k + ell == 0:
                continue
            closed = closed_form_series("traces_n1", (k, ell), 12)
            direct = gf_partitions(12, typical=(k, ell), var="t")
            reports.append({"check": "traces_closed_form", "k": k, "l": ell,
                            "pass": closed.coeffs == direct.coeffs})
            if k >= ell:
                closed = closed_form_series("supertraces_01", (k, ell), 12)
                big = gf_partitions(12, in_hook=(k, ell), self_conjugate=True)
                from .qseries import TruncatedSeries
                small = (gf_partitions(12, in_hook=(k - 1, ell - 1), self_conjugate=True)
                         if min(k, ell) >= 1 else TruncatedSeries.zero("u", 12))
                diff = big - small
                reports.append({"check": "supertraces_closed_form", "k": k, "l": ell,
                                "pass": closed.coeffs == diff.coeffs})
    return _emit_reports("qidentities", reports, args.fmt, out)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.subcommand == "mlambda":
            code = _run_mlambda(args, out)
        elif args.subcommand == "mprime":
            code = _run_mprime(args, out)
        elif args.subcommand == "series":
            code = _run_series(args, out)
        else:
            code = _run_verify(args, out)
    except (ValueError, KeyError) as exc:
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
