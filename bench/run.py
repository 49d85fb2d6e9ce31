"""Benchmark harness for superschur.

    python3 bench/run.py --workload budzik --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

Every pass of a workload runs in a fresh interpreter (bench/workloads.py),
so the library's module-level memos fill within a pass, as they do for a
command-line user, and never carry over.  Passes repeat, round-robin over
the chosen workloads, while the next round still fits in --seconds; each
metric is the median over the passes.

Times are reported at the reference speed.  The speed of a shared machine
drifts by up to 2x over minutes, so a fixed pure-Python loop that calls no
superschur code (`reference`) is timed REFERENCE_SAMPLES times before and
after the set-up samples and after every pass, and a median time d becomes
d * REFERENCE_S / r, where r is the median of the run's reference times.
On a machine that runs the loop in REFERENCE_S seconds these are wall
seconds; the raw medians are printed as well.

--trace 0 reports the end-to-end metrics of END_TO_END.  --trace 1 runs an
untraced and a traced pass per round and reports the per-layer metrics of
spans.LAYER_METRICS, plus trace.overhead_s and env.calib_s (raw seconds).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when a case
failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "superschur"
WORKLOAD_SCRIPT = BENCH / "workloads.py"

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
REFERENCE_S = 0.05  # nominal time of `reference`
REFERENCE_SAMPLES = 3  # reference timings before the set-up and after each pass

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed, not in the result line: which case is slowest depends on the
# order the seed gives the cases (the first case to need a memo fills it),
# so its spread across seeds on budzik (0.12-0.21) is too wide to bound.
PRINTED = {"wall_s": "s", "slowest_case_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s", "env.calib_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def reference() -> float:
    """Seconds for a fixed pure-Python integer loop that calls no superschur
    code."""
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def sample_reference(refs: list[float]) -> None:
    refs.extend(reference() for _ in range(REFERENCE_SAMPLES))


def child_env() -> dict:
    """One process, fixed hashing, no persisted character cache."""
    env = dict(os.environ)
    env.pop("SUPERSCHUR_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    """One pass in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, str(WORKLOAD_SCRIPT), "--workload", workload,
           "--seed", str(seed), *flags]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} pass exited {proc.returncode} "
                         "without a record") from exc
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload} pass exited {proc.returncode}")
    return record


def measure_setup(workload: str, seed: int, deadline: float) -> float:
    """Wall time of interpreter start, `import superschur` and building the
    case list: the median of SETUP_SAMPLES fresh processes, after one
    untimed warm-up that writes the bytecode."""
    run_child(workload, seed, ["--setup-only"], deadline)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_child(workload, seed, ["--setup-only"], deadline)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, cpu: int) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), "PYTHONHASHSEED": "0",
            "reference_s": REFERENCE_S}


def end_to_end(setup_s: float, passes: list[dict], speed: float = 1.0) -> dict:
    """Medians over the passes, times multiplied by `speed`.  The slowest
    case is the case whose median time over the passes is largest; every
    pass of a run runs the cases in the same order."""
    case_medians = [statistics.median(t) for t in zip(*(p["case_s"] for p in passes))]
    return {
        "wall_s": speed * statistics.median(p["wall_s"] for p in passes),
        "slowest_case_s": speed * max(case_medians),
        "setup_s": speed * setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict], refs: list[float]) -> dict:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in LAYER_METRICS}
    out["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["env.calib_s"] = statistics.median(refs)
    return out


def result_line(values: dict, units: dict, passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def print_table(workload: str, values: dict, units: dict, passes: list[dict],
                raw: dict) -> None:
    for name, unit in units.items():
        print(f"{workload:15s} {name:45s} {values[name]:12.6g} {unit}")
    for name, value in raw.items():
        print(f"{workload:15s} {name + ' (raw)':45s} {value:12.6g} s")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{workload:15s} {'failed_frac':45s} {failed / attempted:12.6g} "
          f"({failed}/{attempted} cases, {len(passes)} passes)")
    for label in sorted({f for p in passes for f in p["failures"]}):
        print(f"{workload:15s} FAILED {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="superschur benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the superschur sources are not at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One CPU for the harness and every pass, so that the reference loop
    # runs where the passes run.
    cpu = min(os.sched_getaffinity(0))
    print("env " + json.dumps(environment(args, cpu)), flush=True)
    os.sched_setaffinity(0, {cpu})
    try:
        refs = []
        sample_reference(refs)
        setup = {w: measure_setup(w, args.seed, deadline) for w in names}
        sample_reference(refs)
        plain = {w: [] for w in names}
        traced = {w: [] for w in names}

        def one_pass(w, flags):
            record = run_child(w, args.seed, flags, deadline)
            sample_reference(refs)
            return record

        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for w in names:  # round-robin, so drift hits every workload alike
                plain[w].append(one_pass(w, []))
                line = f"pass {w} {len(plain[w])}: wall_s={plain[w][-1]['wall_s']:.4f}"
                if args.trace:
                    traced[w].append(one_pass(w, ["--trace"]))
                    line += f" traced_wall_s={traced[w][-1]['wall_s']:.4f}"
                print(f"{line} ref_s={refs[-1]:.4f}", flush=True)
            now = time.monotonic()
            if now + (now - round_start) > min(start + args.seconds, deadline):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    speed = REFERENCE_S / statistics.median(refs)
    values, passes = {}, []
    for w in names:
        runs = plain[w] + traced[w]
        if args.trace:
            v = per_layer(plain[w], traced[w], refs)
            print_table(w, v, units, runs, {})
        else:
            v = end_to_end(setup[w], plain[w], speed)
            raw = {k: x for k, x in end_to_end(setup[w], plain[w]).items()
                   if PRINTED[k] == "s"}
            print_table(w, v, PRINTED, runs, raw)
        passes += runs
        if len(names) == 1:
            values = v
        else:
            values.update({f"{w}.{k}": x for k, x in v.items()})
    if len(names) > 1:
        units = {f"{w}.{k}": u for w in names for k, u in units.items()}
    result = result_line(values, units, passes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
