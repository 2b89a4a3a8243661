"""corruptlab benchmark runner.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is measured in fresh child
processes (see ``worker.py``) with OpenBLAS fixed to one thread:

* set-up processes each import corruptlab and write the seeded inputs;
  ``setup_s`` is the median time from spawning one to its inputs being
  written.  The first also computes the check references.
* one run process times closed-loop ``cli.main`` calls, one client, no
  extra threads, and checks every output.

Every time is reported at the reference speed of ``speed.py``: scaled by
the time of a fixed reference loop measured in the same process next to
it, so that swings in the shared machine's speed cancel out.  The raw
times are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
#: As in workloads.py, which this process does not import: the runner itself
#: loads neither numpy nor corruptlab.
WORKLOADS = ("analyze-large", "simulate-large", "plan-large", "small-mixed")
#: Set-up processes before and after the run process; their spread in time
#: keeps one burst of load on the machine from setting the median.
SETUP_REPEATS = 3
#: Seconds a child may take beyond its measuring time before it is killed.
CHILD_SLACK_S = 100
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
#: Fixed in every child: numpy's OpenBLAS otherwise starts one thread per core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run a worker process; return its last JSON line and its spawn time."""
    env = dict(os.environ, **THREAD_ENV)
    spawned = perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[:3]} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1]), spawned


def environment() -> dict:
    digest = hashlib.sha256()
    src = os.path.join("src", "corruptlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            **THREAD_ENV}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    setups, raw_setups = [], []

    def setup(i: int) -> None:
        extra = ["--references"] if i == 0 else []
        done, spawned = child(["setup", "--workload", workload, "--seed", str(seed),
                               "--dir", os.path.join(base, str(i)), *extra], CHILD_SLACK_S)
        setups.append((done["ready"] - spawned) * done["scale"])
        raw_setups.append(done["ready"] - spawned)
        if i:
            shutil.rmtree(os.path.join(base, str(i)))

    try:
        for i in range(SETUP_REPEATS):
            setup(i)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        result, _ = child(["run", "--workload", workload, "--dir", os.path.join(base, "0"),
                           "--seconds", str(seconds), "--trace", str(int(trace)),
                           "--trace-file", trace_file], 3 * seconds + CHILD_SLACK_S)
        for i in range(SETUP_REPEATS, 2 * SETUP_REPEATS):
            setup(i)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw_setups)
    result["trace_file"] = trace_file if trace else None
    return result


def end_to_end(result: dict) -> dict:
    lat = result["latencies"]
    return {
        "setup_s": (result["setup_s"], "s"),
        "jobs_per_s": (result["jobs_per_s"], "1/s"),
        "job_s.p50": (statistics.median(lat), "s"),
        "job_s.p90": (p90(lat), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_rate": (1.0 - result["failed"] / len(lat), "ratio"),
    }


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the workload's metrics by name and return its result object."""
    lat = result["latencies"]
    attempted, failed = len(lat), result["failed"]
    e2e = end_to_end(result)
    print(f"== {workload}: {attempted} jobs in {result['passes']} passes, env {result['env']}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  error_rate   {failed / attempted:.6g} ratio ({failed}/{attempted} failed:"
          f" {result['failures']})")
    print(f"  job_s.p90 from {attempted} samples; {tail_note(lat)}")
    raw = result["raw_latencies"]
    print(f"  raw, not scaled to the reference speed: setup_s {result['raw_setup_s']:.6g} s,"
          f" jobs_per_s {result['raw_jobs_per_s']:.6g} 1/s, job_s.p50"
          f" {statistics.median(raw):.6g} s, job_s.p90 {p90(raw):.6g} s;"
          f" reference loop median {result['reference_s']:.6g} s")
    names = result["jobs"]
    for i, name in enumerate(names):
        print(f"    {name:<44} median {statistics.median(lat[i::len(names)]):.6g} s")
    unexpected = list(result["unexpected"])
    if trace:
        unexpected += result["traced_unexpected"]
        unexpected += [f"busy layer {layer} recorded no call" for layer in result["idle_busy_layers"]]
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:<44} {value:.6g} {unit_of(name)}")
        for name in result["unwrapped"]:
            print(f"  not traced: {name} does not exist")
        print(f"  spans written to {result['trace_file']}")
    for problem in unexpected:
        print(f"  FAILED {problem}")
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def tail_note(lat: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    ranked = sorted(lat)
    if len(ranked) < 11:
        return "fewer than 11 samples, no percentile has 10 above it"
    value = ranked[-11]
    return f"highest percentile with 10 samples above: p{100 * (len(ranked) - 10) / len(ranked):.1f} = {value:.6g} s"


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("residual_max"):
        return "1"
    if name.endswith(("_share", ".overhead", "_per_kernel")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "corruptlab", "__init__.py")):
        print("error: run from the root of a corruptlab checkout (src/corruptlab missing)",
              file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment())}")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            start = perf_counter()
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = report(workload, result, bool(args.trace))
            print(f"  ({perf_counter() - start:.1f} s wall)")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
