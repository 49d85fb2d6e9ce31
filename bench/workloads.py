"""The benchmark's workloads, and one pass of one workload in this interpreter.

Every case drives the public API of superschur and returns a pair
(got, want) from two independent routes or the two sides of an identity;
the case passes iff got == want.  The seed only permutes the order of the
cases, so totals stay comparable across seeds.

Run by bench/run.py, one pass per fresh interpreter:

    PYTHONPATH=src python3 bench/workloads.py --workload budzik --seed 1
    PYTHONPATH=src python3 bench/workloads.py --workload budzik --seed 1 --trace
    PYTHONPATH=src python3 bench/workloads.py --workload budzik --seed 1 --setup-only

The last line of standard output is one JSON record of the pass.  The exit
code is 1 when a case failed.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

BUDZIK_HOOKS = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2))
BUDZIK_MAX_SIZE = 5
SERIES_DEGREE = 12
EVEN_HOOKS = ((1, 1), (2, 1), (1, 2), (2, 2))
ODD_HOOKS = ((1, 1), (2, 1), (2, 2))  # supertraces_01 needs k >= l
CHAR_HOOK = (2, 2)
CHAR_N = 2
CHAR_DEGREE = 14

SPANS_DIR = Path(__file__).resolve().parent / "out"


class Case(NamedTuple):
    label: str
    run: Callable[[], tuple]  # returns (got, want)


def budzik_cases() -> list[Case]:
    """Residue route == character route for the jump, and the diagonal sum
    recovers the multiplicity, for every |lam| <= 5 on six hooks."""
    from superschur import partitions, poincare

    def case(lam, h):
        def run():
            r = poincare.verify_budzik(lam, h)
            return (r["lhs"], r["eq_a_rhs"]), (r["rhs"], r["eq_a_lhs"])
        return Case(f"budzik lambda={lam} hook={h}", run)

    return [case(lam, h) for h in BUDZIK_HOOKS
            for d in range(BUDZIK_MAX_SIZE + 1)
            for lam in partitions.enumerate_partitions(d)]


def series_residue_cases() -> list[Case]:
    """`superschur series --mode prime` by the residue route, one even or one
    odd variable, against the closed-form q-series."""
    from superschur import cli, qseries

    def case(n, m, h, kind):
        argv = ["series", "--mode", "prime", "--hook", f"{h[0]},{h[1]}",
                "--n", str(n), "--m", str(m), "--degree", str(SERIES_DEGREE),
                "--format", "json"]

        def run():
            out = io.StringIO()
            code = cli.main(argv, out=out)
            want = list(qseries.closed_form_series(kind, h, SERIES_DEGREE).coeffs)
            return (code, json.loads(out.getvalue())), (0, want)
        return Case(f"series n={n} m={m} hook={h}", run)

    return ([case(1, 0, h, "traces_n1") for h in EVEN_HOOKS]
            + [case(0, 1, h, "supertraces_01") for h in ODD_HOOKS])


def series_char_cases() -> list[Case]:
    """The derivative relation between the (n+1)-variable series and the
    concomitant n-variable series, character route."""
    from superschur import poincare

    def case(primed):
        def run():
            ok, rep = poincare.check_derivative_relation(
                CHAR_HOOK, CHAR_N, CHAR_DEGREE, primed, route="char")
            return (ok, rep["linear_slice"]), (True, rep["bar_series"])
        return Case(f"derivative hook={CHAR_HOOK} n={CHAR_N} D={CHAR_DEGREE} "
                    f"primed={primed}", run)

    return [case(False), case(True)]


WORKLOADS = {
    "budzik": budzik_cases,
    "series_residue": series_residue_cases,
    "series_char": series_char_cases,
}


def build_cases(workload: str, seed: int) -> list[Case]:
    cases = WORKLOADS[workload]()
    random.Random(seed).shuffle(cases)
    return cases


def run_pass(cases: list[Case], tracer=None) -> dict:
    """Run every case once; a case that raises counts as failed."""
    case_s = []
    failures = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        case_start = time.perf_counter()
        try:
            got, want = case.run()
            ok = got == want
        except Exception:  # a raising case is a failed case; the pass goes on
            traceback.print_exc()
            ok = False
        case_s.append(time.perf_counter() - case_start)
        if not ok:
            failures.append(case.label)
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "case_s": case_s,
            "attempted": len(cases), "failed": len(failures),
            "failures": failures}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true",
                      help="wrap each layer's public functions and report spans")
    mode.add_argument("--setup-only", action="store_true",
                      help="import superschur, build the cases and stop")
    args = parser.parse_args(argv)

    cases = build_cases(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"cases": len(cases)}))
        return 0
    if args.trace:
        from spans import Tracer
        with Tracer() as tracer:
            record = run_pass(cases, tracer)
        record["layers"] = tracer.metrics()
        SPANS_DIR.mkdir(exist_ok=True)
        record["spans_file"] = str(tracer.write(SPANS_DIR / f"{args.workload}.spans.jsonl"))
    else:
        record = run_pass(cases)
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
