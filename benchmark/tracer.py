"""Span tracing of corruptlab's public functions, from outside the package.

`Tracer.install` replaces each function in `WRAPPED` by a wrapper at every
place it is bound: the defining module and every corruptlab module that
imported it by name (``cli`` imports ``pseudoinverse``, ``simlab`` imports
``corrected_loss`` and so on).  Calls through a module attribute
(``divergence.alpha``) and calls inside the defining module resolve to the
wrapper too, because both look the name up at call time.

Each call records one span ``(name, start, end, parent, job)`` in memory.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

#: Public functions wrapped per layer; a layer is a corruptlab module.
WRAPPED = {
    "kernels": ("kernel_from_json", "dist_from_json"),
    "catalog": ("build_kernel", "closed_form_stats", "spec_from_json"),
    "divergence": ("alpha", "lambda_coeff", "variational"),
    "reconstruct": ("is_reconstructible", "pseudoinverse", "corrected_loss",
                    "op_norm_row_sum", "loss_from_json"),
    "bounds": ("lecam_replicated", "lecam_corrupted", "lecam_mixed",
               "eta_compatibility", "problem_from_json", "mixed_from_json"),
    "planner": ("exact_plan", "greedy_plan", "offers_from_json"),
    "simlab": ("sample", "corrupt", "erm", "risk_curve", "fastrate_curve",
               "config_from_json"),
    "cli": ("main", "cmd_analyze", "cmd_tables", "cmd_plan", "cmd_simulate",
            "cmd_lecam"),
}

#: Layers that the benchmark expects to do work on each workload.
BUSY_LAYERS = {
    "analyze-large": ("divergence", "reconstruct"),
    "simulate-large": ("simlab",),
    "plan-large": ("planner",),
    "small-mixed": ("kernels", "catalog", "bounds", "cli"),
}

#: Functions whose calls count as one pass over a kernel's column pairs, and
#: as one factorization of a kernel.
PAIR_PASSES = ("divergence.alpha", "divergence.lambda_coeff")
FACTORIZATIONS = ("reconstruct.is_reconstructible", "reconstruct.pseudoinverse")


def _capacity(offers, budget) -> int:
    budget = Fraction(budget)
    scale = math.lcm(*(o.unit_cost.denominator for o in offers), budget.denominator)
    return int(budget * scale)


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []
        self.job = None
        self.counts: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        # Kernels seen by each group of functions in the current job, kept
        # alive until the job ends so that their ids stay distinct.
        self._kernels = {PAIR_PASSES: {}, FACTORIZATIONS: {}}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in `WRAPPED`; record the names that do not exist."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "corruptlab" or name.startswith("corruptlab."))]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"corruptlab.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        group = next((g for g in self._kernels if name in g), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            self._count(name, group, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, group, args, kwargs, result) -> None:
        def arg(i: int, key: str):
            return args[i] if len(args) > i else kwargs[key]

        counts = self.counts
        if group is not None:
            kernel = arg(0, "t")
            self._kernels[group][id(kernel)] = kernel
        if name == "kernels.kernel_from_json":
            counts["kernels.kernel_from_json.entries"] += result.matrix.size
        elif name == "divergence.alpha":
            m = arg(0, "t").matrix.shape[1]
            counts["divergence.alpha.col_pairs"] += m * (m - 1) // 2
        elif name == "reconstruct.pseudoinverse":
            self.residual_max = max(self.residual_max, result.residual)
        elif name == "planner.exact_plan":
            offers = arg(0, "offers")
            counts["planner.exact_plan.cells"] += _capacity(offers, arg(1, "budget")) * len(offers)
        elif name == "simlab.sample":
            counts["simlab.sample.draws"] += arg(1, "n")
        elif name == "simlab.corrupt":
            counts["simlab.corrupt.draws"] += len(arg(1, "clean"))

    def end_job(self, exit_code) -> None:
        """Close the current job: tally its exit code and distinct kernels."""
        key = {0: "cli.exit0", 2: "cli.exit2", 3: "cli.exit3"}.get(exit_code, "cli.uncaught")
        self.counts[key] += 1
        for group, seen in self._kernels.items():
            self.counts[group] += len(seen)
            seen.clear()

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self, passes: int, job_seconds: float) -> dict[str, float]:
        """Per-layer metrics, normalised to one pass over the workload's jobs."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += s
        c = self.counts
        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            layer_self = 0.0
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key] / passes
                out[f"{key}.self_s"] = self_s[key] / passes
                layer_self += self_s[key]
            out[f"{layer}.self_share"] = layer_self / job_seconds if job_seconds > 0 else 0.0
        for key in ("kernels.kernel_from_json.entries", "divergence.alpha.col_pairs",
                    "planner.exact_plan.cells", "simlab.sample.draws", "simlab.corrupt.draws",
                    "cli.exit0", "cli.exit2", "cli.exit3", "cli.uncaught"):
            out[key] = c[key] / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        out["divergence.pair_passes_per_kernel"] = ratio(
            sum(calls[k] for k in PAIR_PASSES), c[PAIR_PASSES])
        out["reconstruct.factorizations_per_kernel"] = ratio(
            sum(calls[k] for k in FACTORIZATIONS), c[FACTORIZATIONS])
        out["reconstruct.residual_max"] = self.residual_max
        out["planner.cells_per_s"] = ratio(c["planner.exact_plan.cells"],
                                           self_s["planner.exact_plan"])
        out["simlab.draws_per_s"] = ratio(
            c["simlab.sample.draws"] + c["simlab.corrupt.draws"],
            self_s["simlab.sample"] + self_s["simlab.corrupt"])
        return out

    def idle_busy_layers(self, workload: str) -> list[str]:
        """Layers expected to be busy on this workload that recorded no call."""
        seen = {span[0].split(".", 1)[0] for span in self.spans}
        return [layer for layer in BUSY_LAYERS[workload] if layer not in seen]

    def by_job(self, job_names: list[str], passes: int) -> dict:
        """Per job name and function: calls, self and total seconds per pass.

        Job ids number the jobs of successive passes consecutively.
        """
        table: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0.0]))
        for (name, start, end, _, job), s in zip(self.spans, self.self_times()):
            row = table[job_names[job % len(job_names)]][name]
            row[0] += 1 / passes
            row[1] += s / passes
            row[2] += (end - start) / passes
        return {job: {fn: dict(zip(("calls", "self_s", "total_s"), row)) for fn, row in fns.items()}
                for job, fns in table.items()}
