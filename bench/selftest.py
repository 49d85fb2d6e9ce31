"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

The traced-count test runs every workload twice and takes about a minute.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

Span = spans.Span


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        trace = [Span("root", 0, 10, None, 0),
                 Span("a", 1, 4, 0, 0),
                 Span("b", 5, 9, 0, 0),
                 Span("c", 6, 7, 2, 0)]
        self.assertEqual(spans.self_times(trace), [3, 3, 3, 1])

    def test_children_cover_a_union_clipped_to_the_parent(self):
        trace = [Span("root", 0, 10, None, None),
                 Span("a", 2, 6, 0, None),
                 Span("b", 4, 8, 0, None),
                 Span("c", 9, 12, 0, None)]
        # covered: [2, 8] and [9, 10]
        self.assertEqual(spans.self_times(trace)[0], 3)

    def test_no_spans(self):
        self.assertEqual(spans.self_times([]), [])


WRONG_CASE = """
import sys
import workloads

real = workloads.budzik_cases

def with_one_wrong_expected_value():
    cases = real()[:3]
    right = cases[1].run
    cases[1] = cases[1]._replace(run=lambda: (right()[0], "wrong"))
    return cases

workloads.WORKLOADS["budzik"] = with_one_wrong_expected_value
sys.exit(workloads.main(["--workload", "budzik", "--seed", "1"]))
"""


class FailedCaseTest(unittest.TestCase):
    def test_wrong_expected_value_is_counted_and_fails_the_run(self):
        proc = subprocess.run([sys.executable, "-c", WRONG_CASE], cwd=BENCH,
                              env=run.child_env(), capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        record = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual((record["attempted"], record["failed"]), (3, 1))

        out = io.StringIO()
        with mock.patch.object(run, "run_child", lambda *args: record), \
                redirect_stdout(out):
            code = run.main(["--workload", "budzik", "--seed", "1",
                             "--seconds", "0"])
        self.assertEqual(code, 1)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))
        frac = next(x for x in lines if "failed_frac" in x).split()[2]
        self.assertAlmostEqual(float(frac), 1 / 3, places=5)
        self.assertTrue(any("FAILED budzik" in x for x in lines))

    def test_missing_sources_exit_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "budzik", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TracerTest(unittest.TestCase):
    def test_wrappers_are_gone_after_the_traced_run(self):
        import superschur.cli  # noqa: F401  (cli is not imported by the package)
        from superschur import poincare
        from superschur.laurent import LaurentPoly

        def snapshot():
            owners = [m for n, m in sys.modules.items()
                      if n == "superschur" or n.startswith("superschur.")]
            return {(id(o), k): v for o in owners + [LaurentPoly]
                    for k, v in vars(o).items()}

        before = snapshot()
        with spans.Tracer() as tracer:
            self.assertTrue(hasattr(poincare.verify_budzik, "bench_span"))
            self.assertTrue(hasattr(LaurentPoly.__mul__, "bench_span"))
            poincare.verify_budzik((2, 1), (1, 1))
        self.assertEqual(before, snapshot())
        metrics = tracer.metrics()
        self.assertEqual(list(metrics), list(spans.LAYER_METRICS))
        self.assertGreater(metrics["laurent.mul.calls"], 0)
        self.assertGreater(metrics["poincare.verify_budzik.self_s"], 0)

    def test_two_traced_runs_give_identical_counts(self):
        deadline = time.monotonic() + 600
        for workload in workloads.WORKLOADS:
            first = run.run_child(workload, 1, ["--trace"], deadline)["layers"]
            second = run.run_child(workload, 2, ["--trace"], deadline)["layers"]
            exact = [k for k in first
                     if k.endswith((".calls", "_entries"))
                     or k in ("laurent.mul.term_pairs",
                              "residue.constant_term_with_delta.in_terms")]
            self.assertEqual({k: first[k] for k in exact},
                             {k: second[k] for k in exact}, workload)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
