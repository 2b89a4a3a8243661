"""Output checks for benchmark jobs.

Every check parses the program's output and compares numbers, with a
tolerance, against references that the benchmark computed from its own
inputs (numpy.linalg.pinv, a vectorised column-distance maximum, a numpy
knapsack DP, catalog.closed_form_stats).  None depends on the byte layout
of the output.  ``simulate`` is checked by invariants that hold for any
valid seeding recipe, not against recorded curves.

Each check returns ``None`` when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

#: Tolerances: contraction coefficients are exact up to rounding; the
#: program solves normal equations, which squares the condition number.
ALPHA_ATOL = 1e-9
NORM_RTOL = 1e-7
OBJECTIVE_RTOL = 1e-9
ENVELOPE_RTOL = 1e-9
#: Criterion 12 asserts a mean halving ratio at most this on its config.
FAST_RATE_BAND = 0.75


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def check(job: dict, code, stdout: str) -> str | None:
    if code != job["expect"]:
        return f"exit code {code!r}, expected {job['expect']}"
    if job["check"] == "exit":
        return None
    try:
        return CHECKS[job["check"]](job["ref"], stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


def _analyze(ref: dict, stdout: str) -> str | None:
    out = json.loads(stdout)
    if not _close(out["alpha"], ref["alpha"], 0.0, ALPHA_ATOL):
        return f"alpha {out['alpha']!r} != {ref['alpha']!r}"
    if not _close(out["lambda"], 1.0 - ref["alpha"], 0.0, ALPHA_ATOL):
        return f"lambda {out['lambda']!r} != {1.0 - ref['alpha']!r}"
    if out["reconstructible"] is not ref["reconstructible"]:
        return f"reconstructible {out['reconstructible']!r}"
    if not _close(out["row_norm"], ref["row_norm"], NORM_RTOL):
        return f"row_norm {out['row_norm']!r} != {ref['row_norm']!r}"
    if ("corrected_sup" in ref) != ("corrected_sup" in out):
        return "corrected_sup present without --loss, or missing with it"
    if "corrected_sup" in ref and not _close(out["corrected_sup"], ref["corrected_sup"], NORM_RTOL):
        return f"corrected_sup {out['corrected_sup']!r} != {ref['corrected_sup']!r}"
    return None


def _cell(text: str):
    return None if text == "" else float(text)


def _tables(ref: dict, stdout: str) -> str | None:
    rows = list(csv.DictReader(stdout.splitlines()))
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} table rows, expected {len(ref['rows'])}"
    for row, want in zip(rows, ref["rows"]):
        where = f"param {row['param']}"
        if not _close(float(row["param"]), want["param"], 0.0, 1e-12):
            return f"{where}: expected param {want['param']!r}"
        pairs = [("alpha_closed", want["alpha_closed"], 0.0, 1e-12),
                 ("alpha_numeric", want["alpha"], 0.0, ALPHA_ATOL),
                 ("row_norm_closed", want["row_closed"], 1e-12, 0.0),
                 ("row_norm_numeric", want["row_norm"], NORM_RTOL, 0.0),
                 ("corrected01_closed", want["sup_closed"], 1e-12, 0.0),
                 ("corrected01_numeric", want["corrected01"], NORM_RTOL, 0.0)]
        for column, expected, rtol, atol in pairs:
            if not _close(_cell(row[column]), expected, rtol, atol):
                return f"{where}: {column} {row[column]!r} != {expected!r}"
        flag = "" if want["reconstructible"] else "non-reconstructible"
        if row["flag"] != flag:
            return f"{where}: flag {row['flag']!r}"
        diffs = [abs(_cell(row[c]) - _cell(row[n])) for c, n in (
            ("alpha_closed", "alpha_numeric"), ("row_norm_closed", "row_norm_numeric"),
            ("corrected01_closed", "corrected01_numeric"))
            if row[c] != "" and row[n] != ""]
        if not _close(_cell(row["max_abs_diff"]), max(diffs) if diffs else None, 0.0, 1e-15):
            return f"{where}: max_abs_diff {row['max_abs_diff']!r}"
    return None


def _plan_feasible(plan: dict, ref: dict, label: str) -> str | None:
    spend = Fraction(plan["spend"]["num"], plan["spend"]["den"])
    costs = {o["name"]: Fraction(o["num"], o["den"]) for o in ref["offers"]}
    alphas = {o["name"]: o["alpha"] for o in ref["offers"]}
    if any(n < 0 or name not in costs for name, n in plan["counts"].items()):
        return f"{label}: bad counts {plan['counts']!r}"
    if sum(costs[name] * n for name, n in plan["counts"].items()) != spend:
        return f"{label}: counts x costs != spend {spend}"
    if spend > Fraction(ref["budget"]):
        return f"{label}: spend {spend} over budget {ref['budget']}"
    objective = sum(alphas[name] * n for name, n in plan["counts"].items())
    if not _close(plan["objective"], objective, OBJECTIVE_RTOL, 1e-12):
        return f"{label}: objective {plan['objective']!r} != sum alpha x counts {objective!r}"
    return None


def _plan(ref: dict, stdout: str) -> str | None:
    out = json.loads(stdout)
    for label in ("exact", "greedy"):
        problem = _plan_feasible(out[label], ref, label)
        if problem:
            return problem
    if not _close(out["exact"]["objective"], ref["optimum"], OBJECTIVE_RTOL, 1e-12):
        return f"exact objective {out['exact']['objective']!r} != optimum {ref['optimum']!r}"
    if out["greedy"]["objective"] > out["exact"]["objective"] * (1 + OBJECTIVE_RTOL) + 1e-12:
        return "greedy beats the exact plan"
    offers = {o["name"]: o for o in ref["offers"]}
    density = [offers[n]["alpha"] / (offers[n]["num"] / offers[n]["den"])
               for n in out["ranking_lower"]]
    if sorted(out["ranking_lower"]) != sorted(offers) or density != sorted(density, reverse=True):
        return f"ranking_lower {out['ranking_lower']!r} is not by density"
    if all(o.get("corrected_sup") is not None for o in ref["offers"]):
        key = [offers[n]["num"] / offers[n]["den"] * offers[n]["corrected_sup"] ** 2
               for n in out["ranking_upper"]]
        if sorted(out["ranking_upper"]) != sorted(offers) or key != sorted(key):
            return f"ranking_upper {out['ranking_upper']!r} is not by cost x sup^2"
    elif out["ranking_upper"] is not None:
        return "ranking_upper without corrected_sup"
    return None


def _lecam(ref: dict, stdout: str) -> str | None:
    out = json.loads(stdout)
    unclamped = ref["rho"] * (0.25 - 0.25 * ref["effective_count"] * ref["v"])
    want = {"rho": ref["rho"], "n": ref["n"], "effective_count": ref["effective_count"],
            "unclamped": unclamped, "value": max(0.0, unclamped)}
    if "alpha" in ref:
        want["alpha"] = ref["alpha"]
    if set(out) != set(want):
        return f"keys {sorted(out)}, expected {sorted(want)}"
    for key, expected in want.items():
        if not _close(out[key], expected, 1e-9, 1e-12):
            return f"{key} {out[key]!r} != {expected!r}"
    return None


def _simulate(ref: dict, stdout: str) -> str | None:
    with open(ref["out"], encoding="utf-8") as fh:
        text = fh.read()
    os.remove(ref["out"])
    lines = text.splitlines()
    if lines[0] != "n,mean_excess_risk,std_error,envelope":
        return f"CSV header {lines[0]!r}"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if [int(r[0]) for r in rows] != ref["sizes"]:
        return f"n column {[r[0] for r in rows]!r} != {ref['sizes']!r}"
    for n, mean, stderr, envelope in rows:
        want = ref["sup"] * math.sqrt(2.0 * math.log(ref["actions"]) / n)
        if not _close(envelope, want, ENVELOPE_RTOL):
            return f"n={n:g}: envelope {envelope!r} != {want!r}"
        if not (0.0 <= mean <= ref["max_excess"] + 1e-12 and stderr >= 0.0):
            return f"n={n:g}: excess {mean!r} +- {stderr!r} out of range"
        if ref["dominated"] and mean > envelope:
            return f"n={n:g}: mean excess {mean!r} above the envelope {envelope!r}"
    if not ref["fast"]:
        return None if stdout == "" else "standard mode printed to stdout"
    out = json.loads(stdout)
    means = {int(r[0]): r[1] for r in rows}
    ratios = {str(n): means[2 * n] / means[n]
              for n in ref["sizes"] if 2 * n in means and means[n] > 0.0}
    if set(out["ratios"]) != set(ratios) or any(
            not _close(out["ratios"][k], v, 1e-12) for k, v in ratios.items()):
        return f"ratios {out['ratios']!r} != {ratios!r}"
    mean_ratio = sum(ratios.values()) / len(ratios) if ratios else 0.0
    if not _close(out["mean_ratio"], mean_ratio, 1e-12):
        return f"mean_ratio {out['mean_ratio']!r} != {mean_ratio!r}"
    if ref["band"] and not 0.0 <= mean_ratio <= FAST_RATE_BAND:
        return f"mean_ratio {mean_ratio!r} outside [0, {FAST_RATE_BAND}]"
    return None


CHECKS = {
    "analyze": _analyze,
    "tables": _tables,
    "plan": _plan,
    "lecam": _lecam,
    "simulate": _simulate,
}
