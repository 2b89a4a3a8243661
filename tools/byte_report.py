"""Byte record: run every benchmark job on one source tree and print, per
job, its exit code, its stderr and the SHA-256 of its stdout and of its CSV,
with the bytes the BLAS decides apart from the rest.

    python3 tools/byte_report.py SRC

SRC is a ``src`` directory holding a ``corruptlab`` package.  The inputs of
the four workloads of ``benchmark/workloads.py`` are built at seeds 101 and
202 in a temporary directory, together with those of a fixed list of
edge-case jobs (``EDGE_JOBS``) that no benchmark job reaches.  Every job then
runs through ``cli.main`` in this process, with ``OPENBLAS_NUM_THREADS=1``,
and then all of them again in reverse order, so that state one call leaves
for the next shows.

The record is JSON on stdout, one job per line in build order: ``{"exit",
"stdout", "stderr", "csv", "blas"}``.  ``stderr`` is verbatim, with the
temporary directory written as ``<inputs>``.  ``stdout`` and ``csv`` are the
digests of the bytes no BLAS decides: the stdout of a ``plan``, ``lecam`` or
fast-rate ``simulate`` job, or of any job that fails, and a CSV's ``n``,
``mean_excess_risk`` and ``std_error`` columns (null where the job writes
none).  ``blas`` holds the digests of the bytes that the SVD, and so the CPU
kernels OpenBLAS picks, decides in their last digits: ``stdout`` of an
``analyze`` or ``tables`` job that succeeds (its top-level ``stdout`` is then
null) and ``envelope``, the CSV's corrected-sup-norm column.  The
``environment`` names the Python, the numpy, the BLAS numpy was built with
and the configuration the loaded OpenBLAS reports, which names the CPU
kernels it chose at run time.  Two trees are compared by ``diff`` of their
records; ``tests/test_byte_record.py`` compares ``src`` with the committed
``tests/data/byte_record.json``.  The exit status is 1, with the jobs named
on stderr, when a job's two passes differ, else 0.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SEEDS = (101, 202)

_KERNEL = {"from": ["-1", "+1"], "to": ["-1", "+1"], "matrix": [[0.8, 0.3], [0.2, 0.7]]}
_LOSS = {"outcomes": ["-1", "+1"], "actions": ["-1", "+1"], "values": [[0.0, 1.0], [1.0, 0.0]]}
_PROBLEM = {"thetas": ["t0", "t1"], "actions": ["a0", "a1"], "loss": [[0.0, 1.0], [1.0, 0.0]],
            "experiment": _KERNEL | {"from": ["t0", "t1"]}}
_FAST_RATE = {"clean": {"space": ["-1", "+1"], "weights": [0.0, 1.0]}, "loss": _LOSS,
              "corruption": {"family": "binary_label_noise", "params": {"sigma_neg": 0.2, "sigma_pos": 0.3}},
              "sample_sizes": [25, 50], "trials": 25, "seed": 7}


def _kron(*factors: list) -> list:
    """The Kronecker product of matrices given as lists of rows."""
    product = [[1.0]]
    for factor in factors:
        product = [[a * b for a in row for b in frow] for row in product for frow in factor]
    return product


#: A 100 x 100 product kernel: two 2 x 2 and two 5 x 5 column-stochastic factors.
_PRODUCT = _kron([[0.8, 0.3], [0.2, 0.7]], [[0.9, 0.25], [0.1, 0.75]],
                 [[0.6, 0.1, 0.05, 0.1, 0.15], [0.15, 0.5, 0.1, 0.05, 0.1], [0.1, 0.2, 0.7, 0.1, 0.05],
                  [0.1, 0.1, 0.1, 0.65, 0.1], [0.05, 0.1, 0.05, 0.1, 0.6]],
                 [[0.5, 0.2, 0.1, 0.1, 0.1], [0.2, 0.4, 0.2, 0.1, 0.1], [0.1, 0.2, 0.4, 0.2, 0.1],
                  [0.1, 0.1, 0.2, 0.4, 0.2], [0.1, 0.1, 0.1, 0.2, 0.5]])

_TIED_OFFERS = [{"name": "A", "alpha": 0.5, "cost": {"num": 25, "den": 12}},
                {"name": "B", "alpha": 0.6, "cost": {"num": 5, "den": 2}},
                {"name": "C", "alpha": 0.9, "cost": {"num": 15, "den": 4}}]

#: The input documents of the edge-case jobs, by file name.
EDGE_DOCUMENTS = {
    "offers.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 1, "den": 12}},
                    {"name": "B", "alpha": 0.7, "cost": {"num": 5, "den": 12}}],
    "tied-offers.json": _TIED_OFFERS,
    "unbuyable-offer.json": _TIED_OFFERS + [{"name": "D", "alpha": 1.0, "cost": 10**300}],
    "dear-densest-offer.json": [{"name": "A", "alpha": 0.1, "cost": 1}, {"name": "B", "alpha": 0.3, "cost": 3},
                                {"name": "D", "alpha": 1.0, "cost": {"num": 19, "den": 3}}],
    "twelfth-offers.json": [{"name": "A", "alpha": 0.01, "cost": {"num": 1, "den": 12}},
                            {"name": "B", "alpha": 0.9, "cost": {"num": 5, "den": 12}},
                            {"name": "C", "alpha": 0.95, "cost": {"num": 7, "den": 12}}],
    "problem.json": _PROBLEM,
    "no-hypotheses.json": _PROBLEM | {"thetas": []},
    "no-actions.json": _PROBLEM | {"actions": []},
    "loss-shape.json": _PROBLEM | {"loss": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]},
    "repeated-hypothesis.json": _PROBLEM | {"thetas": ["t0", "t0"]},
    "hypotheses-out-of-order.json": _PROBLEM | {"thetas": ["t1", "t0"]},
    "foreign-kernel.json": _KERNEL | {"from": ["a", "b"]},
    "fast-rate.json": _FAST_RATE,
    "bool-matrix.json": _KERNEL | {"matrix": [[True, False], [False, True]]},
    "ragged-matrix.json": _KERNEL | {"matrix": [[0.8, 0.3], [0.2]]},
    "product-100.json": {"from": [f"x{i}" for i in range(100)], "to": [f"y{i}" for i in range(100)],
                         "matrix": _PRODUCT},
    "past-entry-guard.json": {"from": [f"x{i}" for i in range(1001)], "to": [f"y{i}" for i in range(1000)],
                              "matrix": [[1.0]]},
    "one-hot-past-entry-guard.json": {"from": [f"x{i}" for i in range(1001)], "to": [f"y{i}" for i in range(1000)],
                                      "matrix": [[int(i == j % 1000) for j in range(1001)] for i in range(1000)]},
    "string-weight.json": _FAST_RATE | {"clean": {"space": ["-1", "+1"], "weights": ["0.5", 0.5]}},
    "fractional-trials.json": _FAST_RATE | {"trials": 2.5},
    "mix-alpha-string.json": [{"count": 10, "alpha": "0.7"}],
    "sigma-string-and-unknown-key.json": _FAST_RATE | {"corruption": {
        "family": "binary_label_noise", "params": {"sigma_neg": "x", "sigma_pos": 0.3, "extra": 1}}},
    "alpha-1.5-offer.json": [{"name": "A", "alpha": 1.5, "cost": 1}],
    "cost-0-offer.json": [{"name": "A", "alpha": 0.5, "cost": 0}],
    "cost-tiny-offer.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 1, "den": 10**400}}],
    "den-null-offer.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 5, "den": None}}],
    "den-0-offer.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 5, "den": 0}}],
    "cost-unknown-key-offer.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 5, "den": 2, "x": 1}}],
    "duplicate-names-offer.json": [{"name": "A", "alpha": 0.5, "cost": 1}, {"name": "B", "alpha": 0.6, "cost": 2},
                                   {"name": "A", "alpha": 0.9, "cost": 3}],
    "zero-trials.json": _FAST_RATE | {"trials": 0},
    "one-class.json": _FAST_RATE | {"corruption": {"family": "symmetric_label_noise",
                                                   "params": {"sigma": 0.2, "classes": 1}}},
    "mix-negative-count.json": [{"count": -1, "alpha": 0.7}],
    "newline-key-offer.json": [{"name": "A", "alpha": 0.5, "cost": 1, "x\ny": 1}],
    "equally-dense-offers.json": [{"name": "b", "alpha": 0.25, "cost": 64}, {"name": "r", "alpha": 0.5, "cost": 128},
                                  {"name": "s", "alpha": 0.3, "cost": 101}],
    "single-buyable-offer.json": [{"name": "A", "alpha": 0.5, "cost": {"num": 7, "den": 3}},
                                  {"name": "D", "alpha": 1.0, "cost": 2000}],
    "runner-up-just-below.json": [{"name": "b", "alpha": 0.5, "cost": 100},
                                  {"name": "r", "alpha": 0.505 * (1 - 1e-12), "cost": 101}],
    "past-plan-work-guard.json": [{"name": f"s{i}", "alpha": (3163 + i) / 2**14, "cost": 3163 + i}
                                  for i in range(11)],
    "no-sample-sizes.json": _FAST_RATE | {"sample_sizes": []},
    "past-sample-size-guard.json": _FAST_RATE | {"sample_sizes": [10, 10**7 + 1]},
    "past-cell-guard.json": _FAST_RATE | {"sample_sizes": [10], "trials": 10**6 + 1},
    "ties.json": _FAST_RATE | {"clean": {"space": ["-1", "+1"], "weights": [0.5, 0.5]},
                               "corruption": {"family": "binary_label_noise",
                                              "params": {"sigma_neg": 0.2, "sigma_pos": 0.2}},
                               "sample_sizes": [2, 4, 6, 8], "trials": 2000, "seed": 11},
    "past-work-guard.json": _FAST_RATE | {
        "clean": {"space": [str(i) for i in range(1, 12)], "weights": [1 / 11] * 11},
        "loss": {"outcomes": [str(i) for i in range(1, 12)], "actions": [f"a{i}" for i in range(11)],
                 "values": [[float(i != j) for j in range(11)] for i in range(11)]},
        "corruption": {"family": "symmetric_label_noise", "params": {"sigma": 0.2, "classes": 11}},
        "sample_sizes": [10, 20], "trials": 500000},
}

_LECAM = ("lecam", "--theta1", "0", "--theta2", "1", "--problem")

#: Edge-case jobs by name: argv with each input document named by its file
#: name.  Decimal budgets far from 1, malformed decision problems, an infinite
#: count, a corruption foreign to the experiment, a fast-rate simulation, a
#: simulation whose cells often tie exactly (binary noise at sigma = 0.2 on
#: balanced labels: equal counts give both actions a corrected risk of 1/2, so
#: the tie rule picks the action), and documents whose bad values only the
#: value types refuse: a boolean and a ragged kernel matrix, a string weight,
#: a fractional trial count, a string alpha in a mix, and a bad parameter next
#: to an unknown key; a kernel of 1000 x 1001 labels past the entry guard,
#: with a 1 x 1 matrix (bad input) and with a one-hot matrix (refused); one
#: value just outside each kind of range: an offer's alpha of 1.5, a cost of
#: 0 and one that is 0 as a double, no trials, one class, a negative count
#: in a mix and a negative ``--n``; and a config with no sample sizes;
#: offers whose cost has a null ``den`` (read as 1), a ``den`` of 0 and an
#: unknown key, and two offers sharing a name, at a
#: negative budget (the budget is refused first) and at a valid one; and
#: exact plans: three offers of equal density, with
#: many plans worth 24 at budget 100; the same next to an offer no budget can
#: buy, which never sizes the DP; a cheapest scaled cost of 1 (a cost of
#: 1/12); and plans worth 0.6 at budget 6 whose densest offer is dearer than
#: the budget, so the tie goes to the densest offer the budget can buy; an
#: offer key holding a newline, which the message escapes; a runner-up as
#: dense as the densest offer (the DP keeps the Gilmore-Gomory width), one
#: offer the budget can buy next to one it cannot (no DP), a runner-up 1e-12
#: below the densest offer's density, and 11 equally dense offers whose DP
#: would be 1.1e8 units of work, past the plan's work guard; and tables: a
#: binary grid through the singular sigma = 0.5, 50 classes (past the pair
#: pass's screen threshold), 300 classes on two points (a screen that keeps
#: every pair, so it stops after its first slabs), a sigma whose square libm's pow and x*x round
#: apart, one class on an empty grid and on a grid it refuses, and two points
#: of 1000 classes, past the work guard, and 10^9 classes on a grid of
#: sigma from 2 (every parameter is read before the class count's guard);
#: grids past the point guard, valid (10^5 + 1 points) and from sigma = -5
#: (bad input), 1001 classes, past the class guard, a grid from -1e308 to
#: 1e308 whose count overflows a double (bad input) and one of ~5e319 valid
#: points; a sample size of 10^7 + 1 and 10^6 + 1 cells, past their guards; a
#: simulation of 10^6 cells of 11 outcomes and actions, past its work guard;
#: two usage errors, an unknown flag and a class count that is not an
#: integer; and analyze on a 100 x 100 product kernel, whose screened slabs
#: hold several columns each.
EDGE_JOBS = {
    **{f"plan-budget={budget}": ("plan", "--offers", "offers.json", f"--budget={budget}")
       for budget in ("1e-999999", "-1e-999999", "-0.5", "1e400", "1e-10000000", "nan", "1e999999999999999999",
                      "-1e999999999999999999", "1/0", "-1e-40", "inf", "1e99999999999999999999999")},
    **{f"plan-{name}": ("plan", "--offers", f"{name}-offer.json", "--budget", "1")
       for name in ("alpha-1.5", "cost-0", "cost-tiny", "den-0", "cost-unknown-key", "duplicate-names")},
    "plan-den-null": ("plan", "--offers", "den-null-offer.json", "--budget", "12"),
    "plan-duplicate-names-budget=-1": ("plan", "--offers", "duplicate-names-offer.json", "--budget=-1"),
    "plan-tied-offers": ("plan", "--offers", "tied-offers.json", "--budget", "100"),
    "plan-unbuyable-offer": ("plan", "--offers", "unbuyable-offer.json", "--budget", "100"),
    "plan-tie-past-a-dear-densest-offer": ("plan", "--offers", "dear-densest-offer.json", "--budget", "6"),
    "plan-twelfth-cost": ("plan", "--offers", "twelfth-offers.json", "--budget", "9.75"),
    "plan-newline-key": ("plan", "--offers", "newline-key-offer.json", "--budget", "1"),
    "plan-equally-dense-runner-up": ("plan", "--offers", "equally-dense-offers.json", "--budget", "100000"),
    "plan-single-buyable-offer": ("plan", "--offers", "single-buyable-offer.json", "--budget", "1000"),
    "plan-runner-up-just-below": ("plan", "--offers", "runner-up-just-below.json", "--budget", "1000000"),
    "plan-past-work-guard": ("plan", "--offers", "past-plan-work-guard.json", "--budget", "10000000"),
    "tables-binary-singular-point": ("tables", "--family", "binary_label_noise", "--grid", "0.4:0.6:0.1"),
    "tables-50-classes-screened": ("tables", "--family", "symmetric_label_noise", "--grid", "0.1:0.3:0.1",
                                   "--classes", "50"),
    "tables-46-classes-stacked": ("tables", "--family", "symmetric_label_noise", "--grid", "0:0.6:0.05",
                                  "--classes", "46"),
    "tables-300-classes-tie-rich": ("tables", "--family", "symmetric_label_noise", "--grid", "0.1:0.2:0.1",
                                    "--classes", "300"),
    "tables-partial-pow-square": ("tables", "--family", "partial_labels", "--grid", "0.0397:0.0397:0.1"),
    "tables-one-class-empty-grid": ("tables", "--family", "symmetric_label_noise", "--grid", "1:0:0.1",
                                    "--classes", "1"),
    "tables-one-class": ("tables", "--family", "symmetric_label_noise", "--grid", "0.9:1.2:0.1", "--classes", "1"),
    "tables-past-work-guard": ("tables", "--family", "symmetric_label_noise", "--grid", "0.1:0.2:0.1",
                               "--classes", "1000"),
    "tables-sigma-out-of-range-past-class-guard": ("tables", "--family", "symmetric_label_noise", "--grid", "2:3:0.5",
                                                   "--classes", "1000000000"),
    "tables-past-point-guard": ("tables", "--family", "partial_labels", "--grid", "0:1:0.00001"),
    "tables-1001-classes-past-class-guard": ("tables", "--family", "symmetric_label_noise", "--grid", "0.1:0.2:0.1",
                                             "--classes", "1001"),
    "tables-binary-grid-past-point-guard": ("tables", "--family", "binary_label_noise", "--grid=-5:10:0.00001"),
    "tables-grid-past-a-double": ("tables", "--family", "binary_label_noise", "--grid=-1e308:1e308:1e-300"),
    "tables-grid-count-past-a-double": ("tables", "--family", "binary_label_noise", "--grid", "0:0.5:1e-320"),
    **{f"lecam-{name}": (*_LECAM, f"{name}.json")
       for name in ("no-hypotheses", "no-actions", "loss-shape", "repeated-hypothesis",
                    "hypotheses-out-of-order")},
    "lecam-n-inf": (*_LECAM, "problem.json", "--n", "inf"),
    "lecam-n--1": (*_LECAM, "problem.json", "--n", "-1"),
    "lecam-foreign-kernel": (*_LECAM, "problem.json", "--kernel", "foreign-kernel.json"),
    "simulate-fast-rate": ("simulate", "--config", "fast-rate.json", "--out", "fast-rate.csv",
                           "--mode", "fast-rate"),
    "simulate-ties": ("simulate", "--config", "ties.json", "--out", "ties.csv"),
    "simulate-past-work-guard": ("simulate", "--config", "past-work-guard.json", "--out", "malformed.csv"),
    "usage-unknown-flag": (*_LECAM, "problem.json", "--frobnicate"),
    "usage-bad-int": ("tables", "--family", "symmetric_label_noise", "--grid", "0.1:0.2:0.1", "--classes", "x"),
    **{f"analyze-{name}": ("analyze", "--kernel", f"{name}.json")
       for name in ("bool-matrix", "ragged-matrix", "past-entry-guard", "one-hot-past-entry-guard", "product-100")},
    **{f"simulate-{name}": ("simulate", "--config", f"{name}.json", "--out", "malformed.csv")
       for name in ("string-weight", "fractional-trials", "sigma-string-and-unknown-key", "zero-trials",
                    "one-class", "no-sample-sizes", "past-sample-size-guard", "past-cell-guard")},
    **{f"lecam-{name}": (*_LECAM, "problem.json", "--mix", f"{name}.json")
       for name in ("mix-alpha-string", "mix-negative-count")},
}


def _build(directory: str) -> list[dict]:
    """Every job of every workload at each seed, then every edge-case job,
    inputs under ``directory``."""
    import workloads

    edge = Path(directory, "edge")
    edge.mkdir(parents=True)
    for name, document in EDGE_DOCUMENTS.items():
        (edge / name).write_text(json.dumps(document))
    return [{"name": f"{workload}/{seed}/{job.name}", "argv": job.argv}
            for workload in workloads.WORKLOADS for seed in SEEDS
            for job in workloads.build(workload, seed, os.path.join(directory, f"{workload}-{seed}"))] + [
        {"name": f"edge/{name}", "argv": [str(edge / a) if a.endswith((".json", ".csv")) else a for a in argv]}
        for name, argv in EDGE_JOBS.items()]


def _pass(jobs: list[dict]) -> list[tuple]:
    """(exit code, stdout, stderr, csv bytes or None) of each job, in order."""
    from corruptlab import cli

    results = []
    for job in jobs:
        argv = job["argv"]
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out is not None and os.path.exists(out):
            os.remove(out)  # left by an earlier job or pass
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome too
                code = f"uncaught {type(exc).__name__}"
                traceback.print_exc()
        csv = Path(out).read_bytes() if out is not None and os.path.isfile(out) else None
        results.append((code, stdout.getvalue(), stderr.getvalue(), csv))
    return results


def _environment() -> dict:
    """Python, numpy, the BLAS numpy was built with, and the configuration
    the OpenBLAS bundled with numpy reports, which names the CPU kernels it
    chose at run time (null where numpy bundles none)."""
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    openblas = None
    for path in Path(np.__file__).parents[1].glob("numpy*libs/*scipy_openblas64_*"):
        config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        config.argtypes, config.restype = [], ctypes.c_char_p
        openblas = " ".join(config().decode().split())
    return {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "openblas": openblas}


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _line(argv: list[str], code, stdout: str, stderr: str, csv: bytes | None) -> dict:
    """One job's record, the fields the BLAS decides under ``blas``."""
    stdout, blas = _digest(stdout.encode()), {}
    if code == 0 and argv[0] in ("analyze", "tables"):
        blas["stdout"], stdout = stdout, None
    if csv is not None:
        rows = [row.rpartition(b",") for row in csv.split(b"\n")]
        csv, blas["envelope"] = b"\n".join(row[0] for row in rows), _digest(b"\n".join(row[2] for row in rows))
    return {"exit": code, "stdout": stdout, "stderr": stderr, "csv": _digest(csv), "blas": blas}


def main(argv: list[str]) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before anything imports numpy
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath(argv[0]), str(BENCHMARK)]
    with tempfile.TemporaryDirectory(prefix="byte-report-") as inputs:
        jobs = _build(inputs)
        first, second = _pass(jobs), _pass(jobs[::-1])[::-1]
    lines = ",\n".join(f"{json.dumps(job['name'])}: {json.dumps(_line(job['argv'], *result))}"
                       for job, result in zip(jobs, first)).replace(inputs, "<inputs>")
    print(f'{{"environment": {json.dumps(_environment())},\n"jobs": {{\n{lines}\n}}}}')
    unrepeated = [f"differs between passes: {job['name']}\n" for job, a, b in zip(jobs, first, second) if a != b]
    sys.stderr.write("".join(unrepeated))
    return 1 if unrepeated else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
