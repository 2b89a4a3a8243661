"""One benchmark process: ``setup`` writes a workload's inputs, ``run`` times it.

``setup`` imports corruptlab, writes the seeded input documents and prints
the ``perf_counter`` reading at which it finished, with the factor that puts
its time at ``speed``'s reference speed; with ``--references`` it
then computes the check references and writes the job manifest.  ``run``
loads the manifest, runs one untimed warm-up pass, then runs whole passes
over the jobs through ``cli.main`` until ``--seconds`` are used, checking
each job's output and timing ``speed``'s reference loop between jobs.  With
``--trace`` it times an untraced half and a traced half and reports
per-layer metrics.  Both print one JSON line last.

Run from the root of a checkout; corruptlab is imported from ``src``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import corruptlab  # noqa: E402
from corruptlab import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, Speed, reference_time  # noqa: E402
from tracer import Tracer  # noqa: E402

MANIFEST = "jobs.json"


class Tally:
    """Latencies and failures of the jobs run in one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.failures: dict[str, int] = {}
        self.passes = 0

    def record(self, job: dict, start: float, end: float, problem: str | None) -> None:
        self.latencies.append(end - start)
        self.spans.append((start, end))
        if problem is None:
            return
        self.failed += 1
        self.failures[job["name"]] = self.failures.get(job["name"], 0) + 1
        if not job["known_defect"] and len(self.unexpected) < 10:
            self.unexpected.append(f"{job['name']}: {problem}")

    def scaled(self, speed: Speed) -> list[float]:
        """Latencies at the reference speed."""
        return [(end - start) * speed.scale(start, end) for start, end in self.spans]


def jobs_per_s(latencies: list[float], jobs: int) -> float:
    """Jobs per pass over the sum of each job's median latency across passes."""
    return jobs / sum(statistics.median(latencies[i::jobs]) for i in range(jobs))


def run_pass(jobs: list[dict], tally: Tally, speed: Speed, tracer: Tracer | None = None) -> None:
    for i, job in enumerate(jobs):
        out = io.StringIO()
        if tracer is not None:
            tracer.job = tally.passes * len(jobs) + i
        speed.before_job()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is the job's result
            code = f"uncaught {type(exc).__name__}: {exc}"
        end = perf_counter()
        if tracer is not None:
            tracer.end_job(code)
        tally.record(job, start, end, checks.check(job, code, out.getvalue()))
    tally.passes += 1


def timed(jobs: list[dict], seconds: float, speed: Speed, tracer: Tracer | None = None) -> Tally:
    """Whole passes until less than half a pass of the time is left."""
    tally = Tally()
    start = perf_counter()
    while True:
        run_pass(jobs, tally, speed, tracer)
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / tally.passes >= seconds:
            speed.mark()
            return tally


def setup(args) -> None:
    jobs = workloads.build(args.workload, args.seed, args.dir)
    ready = perf_counter()
    print(json.dumps({"ready": ready, "scale": REFERENCE_S / reference_time()}), flush=True)
    if args.references:
        manifest = [job.to_json() for job in jobs]
        with open(os.path.join(args.dir, MANIFEST), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)


def run(args) -> None:
    with open(os.path.join(args.dir, MANIFEST), encoding="utf-8") as fh:
        jobs = json.load(fh)
    speed = Speed()
    run_pass(jobs, Tally(), speed)  # warm-up, untimed
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = timed(jobs, seconds, speed)
    plain_scaled = plain.scaled(speed)
    names = [job["name"] for job in jobs]
    result = {
        "jobs": names, "latencies": plain_scaled, "jobs_per_s": jobs_per_s(plain_scaled, len(jobs)),
        "raw_latencies": plain.latencies, "raw_jobs_per_s": jobs_per_s(plain.latencies, len(jobs)),
        "reference_s": speed.median_reference(), "passes": plain.passes, "failed": plain.failed,
        "unexpected": plain.unexpected, "failures": plain.failures,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "corruptlab": os.path.relpath(corruptlab.__file__)},
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed(jobs, seconds, speed, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(traced.passes, sum(traced.latencies))
        layers["trace.overhead"] = (jobs_per_s(traced.scaled(speed), len(jobs))
                                    / jobs_per_s(plain_scaled, len(jobs)))
        idle = tracer.idle_busy_layers(args.workload)
        result.update(per_layer=layers, idle_busy_layers=idle, unwrapped=tracer.missing,
                      traced_unexpected=traced.unexpected)
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "jobs": names, "passes": traced.passes,
                       "by_job": tracer.by_job(names, traced.passes), "per_layer": layers,
                       "spans": tracer.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--references", action="store_true")
    p.set_defaults(action=setup)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.set_defaults(action=run)
    args = parser.parse_args()
    args.action(args)


if __name__ == "__main__":
    main()
