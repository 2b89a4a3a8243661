"""Seeded inputs and reference values for the benchmark workloads.

`build(workload, seed, directory)` writes the JSON documents the program
reads (kernels through ``kernel_to_json``, losses, offers, configs,
problems, mixes and malformed documents) and returns one pass of jobs.  A
job is a ``cli.main`` argv, the exit code the README contract requires, the
kind of output check, and a thunk that computes the check's reference
values.  The same seed always gives the same documents and jobs.

Sizes are fixed per workload; only parameter values depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from corruptlab import catalog, kernels, reconstruct

WORKLOADS = ("analyze-large", "simulate-large", "plan-large", "small-mixed")

#: Malformed inputs that should exit 2 but, when this benchmark was written,
#: crash with an uncaught exception (string trials, string offer alpha) or
#: exit 3 (a NaN kernel entry passes validation and trips the alpha
#: cross-check).  They count as failed jobs; they do not make a run incorrect.
KNOWN_DEFECTS = ("malformed-nan-kernel", "malformed-trials-string", "malformed-offer-alpha-string")


@dataclass
class Job:
    name: str
    argv: list[str]
    check: str
    reference: Callable[[], dict] | None = field(default=None, repr=False)
    expect: int = 0

    def to_json(self) -> dict:
        """The job with its computed reference values."""
        return {
            "name": self.name, "argv": self.argv, "check": self.check, "expect": self.expect,
            "known_defect": self.name in KNOWN_DEFECTS,
            "ref": self.reference() if self.reference else None,
        }


class Inputs:
    """Writes input documents under one directory, named by the caller."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def write(self, name: str, obj) -> str:
        return self.write_text(name, json.dumps(obj))

    def write_text(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)


# -- references ------------------------------------------------------------------

def max_column_tv(matrix: np.ndarray) -> float:
    """alpha as the largest total-variation distance between two columns."""
    worst = 0.0
    for j in range(matrix.shape[1] - 1):
        worst = max(worst, float(np.abs(matrix[:, j + 1:] - matrix[:, j:j + 1]).sum(axis=0).max()))
    return 0.5 * worst


def reconstruction_reference(matrix: np.ndarray, loss_values: np.ndarray | None = None) -> dict:
    """Reconstructibility, ||R||_1 and ||R* ell||_inf from numpy's pinv."""
    full_rank = bool(np.linalg.matrix_rank(matrix) == matrix.shape[1])
    ref = {"reconstructible": full_rank, "row_norm": None}
    r = np.linalg.pinv(matrix) if full_rank else None
    if full_rank:
        ref["row_norm"] = float(np.abs(r).sum(axis=0).max())
    if loss_values is not None:
        ref["corrected_sup"] = float(np.abs(r.T @ loss_values).max()) if full_rank else None
    return ref


def knapsack_optimum(costs: list[int], alphas: list[float], capacity: int) -> float:
    """Unbounded-knapsack optimum by a DP over residue classes per offer.

    Within one residue class mod c, taking the offer k - j times on top of
    entry j is a running maximum of ``best[j] - j*a`` shifted by ``k*a``.
    """
    best = np.zeros(capacity + 1)
    for c, a in zip(costs, alphas):
        rows = -(-(capacity + 1) // c)
        grid = np.full(rows * c, -np.inf)
        grid[:capacity + 1] = best
        grid = grid.reshape(rows, c)
        k = np.arange(rows)[:, None] * a
        grid = np.maximum.accumulate(grid - k, axis=0) + k
        best = grid.reshape(-1)[:capacity + 1]
    return float(best[-1])


# -- shared builders ---------------------------------------------------------------

def _binary(rng, low=0.02, high=0.25):
    return catalog.build_kernel(catalog.binary_label_noise(*rng.uniform(low, high, 2)))


def _random_loss(rng, outcomes: kernels.Space, actions: int) -> reconstruct.LossTable:
    return reconstruct.LossTable(outcomes, [f"a{i}" for i in range(actions)],
                                 rng.uniform(0.0, 1.0, (len(outcomes), actions)))


def _analyze_job(inputs: Inputs, name: str, kernel, loss=None) -> Job:
    argv = ["analyze", "--kernel", inputs.write(f"{name}.kernel.json", kernels.kernel_to_json(kernel))]
    if loss is not None:
        argv += ["--loss", inputs.write(f"{name}.loss.json", reconstruct.loss_to_json(loss))]

    def reference():
        ref = reconstruction_reference(kernel.matrix, None if loss is None else loss.values)
        ref["alpha"] = max_column_tv(kernel.matrix)
        return ref

    return Job(name, argv, "analyze", reference)


def _config(clean, loss, corruption, sizes, trials, seed) -> dict:
    return {"clean": clean, "loss": reconstruct.loss_to_json(loss), "corruption": corruption,
            "sample_sizes": list(sizes), "trials": trials, "seed": int(seed)}


def _simulate_job(inputs: Inputs, name: str, config: dict, kernel, loss, clean_weights,
                  fast: bool = False, dominated: bool = False, band: bool = False) -> Job:
    out = inputs.path(f"{name}.csv")
    argv = ["simulate", "--config", inputs.write(f"{name}.config.json", config), "--out", out]
    if fast:
        argv += ["--mode", "fast-rate"]

    def reference():
        risks = np.asarray(clean_weights) @ loss.values
        return {"out": out, "sizes": config["sample_sizes"], "actions": len(loss.actions),
                "sup": reconstruction_reference(kernel.matrix, loss.values)["corrected_sup"],
                "max_excess": float(risks.max() - risks.min()),
                "fast": fast, "dominated": dominated, "band": band}

    return Job(name, argv, "simulate", reference)


def _offers(rng, count: int, dens: list[int], with_sup: bool) -> list[dict]:
    offers = []
    for i in range(count):
        den = int(rng.choice(dens))
        offers.append({"name": f"src{i}", "alpha": float(rng.uniform(0.05, 1.0)),
                       "cost": {"num": int(rng.integers(den, 12 * den)), "den": den}})
        if with_sup:
            offers[-1]["corrected_sup"] = float(rng.uniform(1.0, 4.0))
    return offers


def _plan_job(inputs: Inputs, name: str, offers: list[dict], budget: Fraction) -> Job:
    argv = ["plan", "--offers", inputs.write(f"{name}.offers.json", offers), "--budget", str(budget)]

    def reference():
        costs = [Fraction(o["cost"]["num"], o["cost"]["den"]) for o in offers]
        scale = math.lcm(*(c.denominator for c in costs), budget.denominator)
        optimum = knapsack_optimum([int(c * scale) for c in costs], [o["alpha"] for o in offers],
                                   int(budget * scale))
        return {"budget": str(budget), "optimum": optimum,
                "offers": [{"name": o["name"], "alpha": o["alpha"], "num": o["cost"]["num"],
                            "den": o["cost"]["den"], "corrected_sup": o.get("corrected_sup")}
                           for o in offers]}

    return Job(name, argv, "plan", reference)


# -- workloads ---------------------------------------------------------------------

def analyze_large(rng, inputs: Inputs) -> list[Job]:
    """Product kernels of 64 to 512 columns, each with a 4-action loss.

    The median job (128 columns) costs several times its neighbours and the
    512-column job several times the next, so that p50 and p90 each fall
    inside one job's latencies even when the machine's speed changes.
    """
    jobs = []
    products = [(f"binary-x{n}", _binary(rng), n) for n in (6, 7, 8, 9)]
    products += [(f"symmetric3-x{n}", catalog.build_kernel(
        catalog.symmetric_label_noise(3, rng.uniform(0.05, 0.3))), n) for n in (4, 5)]
    for name, factor, n in products:
        kernel = kernels.replicate(factor, n)
        jobs.append(_analyze_job(inputs, name, kernel, _random_loss(rng, kernel.domain, 4)))
    singular = catalog.build_kernel(catalog.binary_label_noise(0.5, 0.5))
    kernel = kernels.parallel_product([singular] + [_binary(rng) for _ in range(5)])
    jobs.append(_analyze_job(inputs, "nonreconstructible-x6", kernel,
                             _random_loss(rng, kernel.domain, 4)))
    return jobs


def _criterion_11(inputs: Inputs) -> Job:
    """The config of acceptance criterion 11, which asserts envelope domination."""
    space = kernels.Space(["-1", "+1"])
    loss = reconstruct.LossTable(space, [f"a{i}" for i in range(10)],
                                 np.random.default_rng(20251101).uniform(0, 1, size=(2, 10)))
    spec = catalog.binary_label_noise(0.25, 0.25)
    config = _config({"space": ["-1", "+1"], "weights": [0.3, 0.7]}, loss,
                     catalog.spec_to_json(spec), (25, 100, 400, 1600), 200, 20251102)
    return _simulate_job(inputs, "criterion-11", config, catalog.build_kernel(spec), loss,
                         [0.3, 0.7], dominated=True)


def _criterion_12(inputs: Inputs) -> Job:
    """The config of acceptance criterion 12, which asserts the fast-rate band:
    8 instances with deterministic labels, label-only binary noise 0.2."""
    m = 8
    instances = kernels.Space([f"x{i}" for i in range(m)])
    labels = kernels.Space(["-1", "+1"])
    outcomes = kernels.product_space([instances, labels])
    truth = [1 if i % 2 == 0 else 0 for i in range(m)]
    weights = np.zeros(2 * m)
    for i in range(m):
        weights[2 * i + truth[i]] = 1.0 / m
    columns = []
    for flip in [None] + list(range(m)):
        col = np.ones(2 * m)
        for i in range(m):
            col[2 * i + (truth[i] if flip != i else 1 - truth[i])] = 0.0
        columns.append(col)
    loss = reconstruct.LossTable(outcomes, ["bayes"] + [f"flip{i}" for i in range(m)],
                                 np.column_stack(columns))
    noise = catalog.build_kernel(catalog.binary_label_noise(0.2, 0.2))
    kernel = kernels.parallel_product([kernels.identity(instances), noise])
    config = _config({"space": list(outcomes.labels), "weights": weights.tolist()}, loss,
                     {"kernel": kernels.kernel_to_json(kernel)}, (50, 100, 200, 400, 800),
                     300, 20251201)
    return _simulate_job(inputs, "criterion-12", config, kernel, loss, weights,
                         fast=True, band=True)


def simulate_large(rng, inputs: Inputs) -> list[Job]:
    """Sample sizes 1e4..1e6 with few trials, three families, both modes.

    Like every large workload, a pass holds three cheap jobs, four jobs of
    one middle cost and two of the top cost, so that p50 and p90 fall in the
    middle of one cost class even when the machine's speed changes.
    """
    families = {
        "binary": (catalog.binary_label_noise(*rng.uniform(0.05, 0.3, 2)), ["-1", "+1"]),
        "symmetric3": (catalog.symmetric_label_noise(3, rng.uniform(0.05, 0.4)), ["1", "2", "3"]),
        "semi": (catalog.semi_supervised(*rng.uniform(0.4, 0.9, 2)), ["-1", "+1"]),
    }

    def standard(family: str, trials: int) -> Job:
        spec, labels = families[family]
        weights = rng.dirichlet(np.full(len(labels), 4.0))
        loss = _random_loss(rng, kernels.Space(labels), len(labels) + 1)
        config = _config({"space": labels, "weights": weights.tolist()}, loss,
                         catalog.spec_to_json(spec), (10**4, 10**5, 10**6), trials,
                         rng.integers(2**63))
        return _simulate_job(inputs, f"{family}-standard-{trials}", config,
                             catalog.build_kernel(spec), loss, weights)

    def fast_rate(family: str, trials: int) -> Job:
        """Separable clean distribution, zero-one loss (which symmetric noise
        is incompatible with: its eta is infinite)."""
        spec, labels = families[family]
        weights = np.zeros(len(labels))
        weights[rng.integers(len(labels))] = 1.0
        loss = reconstruct.zero_one_loss(kernels.Space(labels))
        config = _config({"space": labels, "weights": weights.tolist()}, loss,
                         catalog.spec_to_json(spec), (10**4, 2 * 10**4, 10**5, 2 * 10**5, 10**6),
                         trials, rng.integers(2**63))
        return _simulate_job(inputs, f"{family}-fast-rate-{trials}", config,
                             catalog.build_kernel(spec), loss, weights, fast=True)

    return [_criterion_11(inputs), _criterion_12(inputs), fast_rate("binary", 1),
            standard("binary", 4), standard("symmetric3", 4), standard("semi", 4),
            fast_rate("semi", 3), standard("binary", 12), standard("symmetric3", 10)]


#: (scaled capacity, offers) per plan-large job: three cheap jobs, four of
#: the middle cost, two of the top cost.  Capacities are coprime to the cost
#: scale, so the scaled budget is exactly the capacity.
PLAN_LARGE_JOBS = ((10**4 + 1, 6), (3 * 10**4 + 1, 5), (10**5 + 1, 4)) + ((3 * 10**5 + 1, 3),) * 4 \
    + ((10**6 + 1, 6),) * 2
PLAN_LARGE_SCALE = 12
#: Seed of the fixed scaled costs and relative alphas of the plan-large offers.
PLAN_LARGE_TABLE_SEED = 20251217


def _plan_large_table() -> list[tuple[list[int], list[float]]]:
    """Scaled costs with no common factor, and alphas, per plan-large job.

    Which DP cells improve, and so the DP's time, depends on the costs and
    the alphas' ratios: drawn afresh per seed, the same capacity took from
    0.12 to 0.28 s.  So they are fixed here, and the seed only scales the
    alphas, which leaves every comparison in the DP as it was.
    """
    rng = np.random.default_rng(PLAN_LARGE_TABLE_SEED)
    table = []
    for _, count in PLAN_LARGE_JOBS:
        scaled = [0] * count
        while math.gcd(*scaled) != 1:
            scaled = [int(c) for c in rng.integers(PLAN_LARGE_SCALE, 12 * PLAN_LARGE_SCALE, count)]
        table.append((scaled, [float(a) for a in rng.uniform(0.1, 1.0, count)]))
    return table


def plan_large(rng, inputs: Inputs) -> list[Job]:
    """3-6 offers at costs in twelfths; scaled capacities 1e4..1e6.

    Costs and relative alphas are fixed (``_plan_large_table``), so the DP's
    work and memory do not depend on the seed.  The seed sets the alphas'
    common scale, the offers' order and their ``corrected_sup`` values.
    """
    jobs = []
    for k, ((capacity, count), (scaled, alphas)) in enumerate(zip(PLAN_LARGE_JOBS,
                                                                  _plan_large_table())):
        scale = float(rng.uniform(0.5, 1.0))
        with_sup = bool(rng.integers(2))
        offers = []
        for i in rng.permutation(count):
            cost = Fraction(scaled[i], PLAN_LARGE_SCALE)
            offers.append({"name": f"src{i}", "alpha": alphas[i] * scale,
                           "cost": {"num": cost.numerator, "den": cost.denominator}})
            if with_sup:
                offers[-1]["corrected_sup"] = float(rng.uniform(1.0, 4.0))
        jobs.append(_plan_job(inputs, f"{k}-capacity-{capacity}-offers-{count}", offers,
                              Fraction(capacity, PLAN_LARGE_SCALE)))
    return jobs


def _lecam_jobs(rng, inputs: Inputs) -> list[Job]:
    thetas, outputs = ["t0", "t1", "t2"], ["y0", "y1", "y2"]
    loss = rng.uniform(0.0, 1.0, (3, 3))
    experiment = kernels.Kernel(kernels.Space(thetas), kernels.Space(outputs),
                                rng.dirichlet(np.ones(3), size=3).T)
    corruption = kernels.Kernel(kernels.Space(outputs), kernels.Space(["z0", "z1"]),
                                rng.dirichlet(np.ones(2), size=3).T)
    problem = inputs.write("lecam.problem.json", {
        "thetas": thetas, "actions": ["a0", "a1", "a2"], "loss": loss.tolist(),
        "experiment": kernels.kernel_to_json(experiment)})
    n = float(rng.integers(1, 20))
    counts = [int(c) for c in rng.integers(1, 50, 2)]
    mix_alpha = float(rng.uniform(0.1, 0.9))
    mix = inputs.write("lecam.mix.json", [
        {"kernel": kernels.kernel_to_json(corruption), "count": counts[0]},
        {"alpha": mix_alpha, "count": counts[1]}])
    kernel = inputs.write("lecam.kernel.json", kernels.kernel_to_json(corruption))
    base = ["lecam", "--problem", problem, "--theta1", "0", "--theta2", "t2", "--n", repr(n)]

    def reference(extra: str):
        regret = loss - loss.min(axis=1, keepdims=True)
        e = experiment.matrix
        ref = {"rho": float((regret[0] + regret[2]).min()), "n": n,
               "v": 0.5 * float(np.abs(e[:, 0] - e[:, 2]).sum()), "effective_count": n}
        alpha = max_column_tv(corruption.matrix)
        if extra == "kernel":
            ref["alpha"] = alpha
            ref["effective_count"] = alpha * n
        elif extra == "mix":
            ref["effective_count"] = alpha * counts[0] + mix_alpha * counts[1]
        return ref

    return [Job("lecam-plain", base, "lecam", lambda: reference("plain")),
            Job("lecam-kernel", base + ["--kernel", kernel], "lecam", lambda: reference("kernel")),
            Job("lecam-mix", base + ["--mix", mix], "lecam", lambda: reference("mix"))]


#: One grid per catalog family, clear of near-singular parameters; the binary
#: grid hits the exactly singular 0.5.
TABLE_GRIDS = {
    catalog.BINARY: "0:0.6:0.05",
    catalog.SYMMETRIC: "0:0.6:0.05",
    catalog.SEMI_SUPERVISED: "0.05:1:0.05",
    catalog.PARTIAL: "0:0.9:0.1",
}


def _tables_job(family: str, grid: str) -> Job:
    builders = {
        catalog.BINARY: lambda s: catalog.binary_label_noise(s, s),
        catalog.SYMMETRIC: lambda s: catalog.symmetric_label_noise(3, s),
        catalog.SEMI_SUPERVISED: lambda s: catalog.semi_supervised(s, s),
        catalog.PARTIAL: catalog.partial_labels,
    }
    start, end, step = (float(x) for x in grid.split(":"))
    params = [round(start + k * step, 12) for k in range(int(round((end - start) / step)) + 1)]

    def reference():
        rows = []
        for s in params:
            spec = builders[family](s)
            kernel = catalog.build_kernel(spec)
            closed = catalog.closed_form_stats(spec)
            zero_one = 1.0 - np.eye(len(kernel.domain))
            ref = reconstruction_reference(kernel.matrix, zero_one)
            rows.append({"param": s, "alpha": max_column_tv(kernel.matrix),
                         "alpha_closed": closed.alpha,
                         "row_closed": closed.row_norm, "sup_closed": closed.corrected01_norm,
                         "row_norm": ref["row_norm"], "corrected01": ref["corrected_sup"],
                         "reconstructible": ref["reconstructible"]})
        return {"rows": rows}

    return Job(f"tables-{family}", ["tables", "--family", family, "--grid", grid], "tables",
               reference)


def _malformed_jobs(rng, inputs: Inputs) -> list[Job]:
    text = json.dumps(kernels.kernel_to_json(_binary(rng)))
    nan_kernel = kernels.kernel_to_json(_binary(rng))
    nan_kernel["matrix"][int(rng.integers(2))][int(rng.integers(2))] = float("nan")
    missing = kernels.kernel_to_json(_binary(rng))
    del missing["to"]
    space = kernels.Space(["-1", "+1"])
    spec = catalog.spec_to_json(catalog.binary_label_noise(0.1, 0.2))
    config = _config({"space": ["-1", "+1"], "weights": [-0.25, 1.25]},
                     reconstruct.zero_one_loss(space), spec, (25, 50), 5, rng.integers(2**63))
    string_trials = dict(config, clean={"space": ["-1", "+1"], "weights": [0.4, 0.6]},
                         trials="5")
    offers = _offers(rng, 2, [1, 2], with_sup=False)
    offers[0]["alpha"] = "x"
    out = inputs.path("malformed.csv")

    def job(name: str, argv: list[str]) -> Job:
        return Job(f"malformed-{name}", argv, "exit", expect=2)

    return [
        job("bad-json", ["analyze", "--kernel",
                         inputs.write_text("bad.kernel.json", text[:int(rng.integers(5, len(text) - 5))])]),
        job("missing-keys", ["analyze", "--kernel", inputs.write("missing.kernel.json", missing)]),
        job("negative-weights", ["simulate", "--config",
                                 inputs.write("negative.config.json", config), "--out", out]),
        job("nan-kernel", ["analyze", "--kernel", inputs.write("nan.kernel.json", nan_kernel)]),
        job("trials-string", ["simulate", "--config",
                              inputs.write("trials.config.json", string_trials), "--out", out]),
        job("offer-alpha-string", ["plan", "--offers", inputs.write("alpha.offers.json", offers),
                                   "--budget", "10"]),
    ]


def small_mixed(rng, inputs: Inputs) -> list[Job]:
    """Many small jobs over all five subcommands, a quarter of them malformed."""
    def loss_for(kernel):
        return _random_loss(rng, kernel.domain, len(kernel.domain))

    binary = _binary(rng, 0.05, 0.4)
    symmetric3 = catalog.build_kernel(catalog.symmetric_label_noise(3, rng.uniform(0.05, 0.5)))
    symmetric5 = catalog.build_kernel(catalog.symmetric_label_noise(5, rng.uniform(0.05, 0.6)))
    semi = catalog.build_kernel(catalog.semi_supervised(*rng.uniform(0.2, 0.9, 2)))
    partial = catalog.build_kernel(catalog.partial_labels(rng.uniform(0.05, 0.6)))
    jobs = [
        _analyze_job(inputs, "analyze-binary", binary),
        _analyze_job(inputs, "analyze-binary-loss", binary, loss_for(binary)),
        _analyze_job(inputs, "analyze-symmetric3-loss", symmetric3, loss_for(symmetric3)),
        _analyze_job(inputs, "analyze-symmetric5", symmetric5),
        _analyze_job(inputs, "analyze-semi", semi),
        _analyze_job(inputs, "analyze-semi-loss", semi, loss_for(semi)),
        _analyze_job(inputs, "analyze-partial-loss", partial, loss_for(partial)),
    ]
    jobs += [_tables_job(family, grid) for family, grid in TABLE_GRIDS.items()]
    for i, count in enumerate((3, 3, 4)):
        offers = _offers(rng, count, [1, 2, 3, 4], with_sup=i != 1)
        budget = Fraction(int(rng.integers(20, 400)), int(rng.choice([1, 2, 4])))
        jobs.append(_plan_job(inputs, f"plan-{i}", offers, min(budget, Fraction(100))))
    jobs += _lecam_jobs(rng, inputs)

    space = kernels.Space(["-1", "+1"])
    spec = catalog.binary_label_noise(*[rng.uniform(0.1, 0.3)] * 2)
    kernel = catalog.build_kernel(spec)
    p = rng.uniform(0.2, 0.45)
    zero_one = reconstruct.zero_one_loss(space)
    config = _config({"space": ["-1", "+1"], "weights": [p, 1 - p]}, zero_one,
                     catalog.spec_to_json(spec), (25, 50), 25, rng.integers(2**63))
    jobs.append(_simulate_job(inputs, "simulate-standard", config, kernel, zero_one, [p, 1 - p]))
    config = dict(config, clean={"space": ["-1", "+1"], "weights": [0.0, 1.0]})
    jobs.append(_simulate_job(inputs, "simulate-fast-rate", config, kernel, zero_one, [0.0, 1.0],
                              fast=True))
    return jobs + _malformed_jobs(rng, inputs)


BUILDERS = {
    "analyze-large": analyze_large,
    "simulate-large": simulate_large,
    "plan-large": plan_large,
    "small-mixed": small_mixed,
}


def build(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` and return one pass of jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, Inputs(directory))
