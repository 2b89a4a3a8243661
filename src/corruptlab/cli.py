"""Command-line front end.

Subcommands: ``analyze`` a kernel file, reproduce closed-form ``tables`` on a
parameter grid, ``plan`` acquisitions against a budget, ``simulate`` risk
curves, and evaluate ``lecam`` lower bounds.  JSON in, JSON or CSV out; all
output is byte-stable for fixed inputs and seeds.

``tables`` sweeps one family along the grid: every probability parameter is
set to the grid value sigma and ``classes`` (if the family has it) to
``--classes``.

Exit codes: 0 success, 2 invalid input, 3 numerical failure or tripped guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import catalog, divergence, planner
from .bounds import check_corruption, lecam_replicated, mixed_from_json, problem_from_json, separation
from .errors import InvalidInput, InvalidParameter, NumericalFailure, ParseError, RankDeficient, SizeGuardExceeded
from .kernels import kernel_from_json
from .reconstruct import corrected_sup_norm, loss_from_json, op_norm_row_sum, pseudoinverse, zero_one_loss
from .schema import load_json
from .simlab import config_from_json, fastrate_curve, risk_curve

TABLE_HEADER = (
    "param,alpha_closed,alpha_numeric,row_norm_closed,row_norm_numeric,"
    "corrected01_closed,corrected01_numeric,max_abs_diff,flag"
)

#: Most points a ``tables --grid`` may hold.
GRID_POINT_GUARD = 10**5


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f'grid must be "start:end:step", got {text!r}')
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"non-numeric grid bound in {text!r}") from exc
    if not all(map(math.isfinite, (start, end, step))):
        raise ParseError(f"grid bounds must be finite, got {text!r}")
    if step <= 0:
        raise ParseError("grid step must be positive")
    too_many = f"grid {text!r} has more than {GRID_POINT_GUARD} points"
    if (end + 1e-12 - start) / step >= GRID_POINT_GUARD:  # counted before any point is made
        raise SizeGuardExceeded(too_many)
    values = []
    for k in range(GRID_POINT_GUARD + 1):  # a step below the float spacing at start repeats points
        v = start + k * step
        if v > end + 1e-12:
            return values
        values.append(round(v, 12))  # keep grid labels clean in the CSV
    raise SizeGuardExceeded(too_many)


def _theta_ref(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _reconstruction(kernel):
    """The kernel's pseudoinverse, or None when its columns are dependent."""
    try:
        return pseudoinverse(kernel)
    except RankDeficient:
        return None


def cmd_analyze(args) -> int:
    kernel = kernel_from_json(load_json(args.kernel))
    report = {
        "alpha": divergence.alpha(kernel),
        "lambda": divergence.lambda_coeff(kernel),
    }
    rec = _reconstruction(kernel)
    report["reconstructible"] = rec is not None
    report["row_norm"] = None if rec is None else op_norm_row_sum(rec)
    if args.loss is not None:
        loss = loss_from_json(load_json(args.loss))
        report["corrected_sup"] = None if rec is None else corrected_sup_norm(rec, loss)
    _emit(report)
    return 0


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def cmd_tables(args) -> int:
    names = catalog.family(args.family).params  # an unknown family fails before the grid is read
    lines = [TABLE_HEADER]
    for sigma in _parse_grid(args.grid):
        params = {key: args.classes if key == "classes" else sigma for key in names}
        spec = catalog.make_spec(args.family, **params)
        kernel = catalog.build_kernel(spec)
        closed = catalog.closed_form_stats(spec)
        numeric = [divergence.alpha(kernel), None, None]
        rec = _reconstruction(kernel)
        if rec is not None:
            numeric[1:] = op_norm_row_sum(rec), corrected_sup_norm(rec, zero_one_loss(kernel.domain))
        cells = list(zip((closed.alpha, closed.row_norm, closed.corrected01_norm), numeric))
        diffs = [abs(c - n) for c, n in cells if c is not None and n is not None]
        lines.append(",".join([
            repr(float(sigma)),
            *(_cell(value) for cell in cells for value in cell),
            _cell(max(diffs) if diffs else None),
            "" if rec is not None else "non-reconstructible",
        ]))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_plan(args) -> int:
    offers = planner.offers_from_json(load_json(args.offers))
    try:
        budget = Fraction(args.budget)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad budget {args.budget!r}: {exc}") from exc
    report = {
        "greedy": planner.greedy_plan(offers, budget).to_json(),
        "exact": planner.exact_plan(offers, budget).to_json(),
        "ranking_lower": planner.rank_sources_lower(offers),
        "ranking_upper": (
            planner.rank_sources_upper(offers)
            if all(o.corrected_sup is not None for o in offers) else None
        ),
    }
    _emit(report)
    return 0


def cmd_simulate(args) -> int:
    config = config_from_json(load_json(args.config))
    if args.mode == "fast-rate":
        report = fastrate_curve(config)
        csv = report.curve.to_csv()
        _emit({
            "ratios": {str(n): r for n, r in report.ratios},
            "mean_ratio": report.mean_ratio,
        })
    else:
        csv = risk_curve(config).to_csv()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv)
    return 0


def cmd_lecam(args) -> int:
    if not 0.0 <= args.n < math.inf:  # printed even when --mix overrides it
        raise InvalidParameter(f"--n must be finite and >= 0, got {args.n!r}")
    problem = problem_from_json(load_json(args.problem))
    t1, t2 = _theta_ref(args.theta1), _theta_ref(args.theta2)
    report = {
        "rho": separation(problem, t1, t2),
        "n": args.n,
    }
    if args.kernel is not None:
        kernel = kernel_from_json(load_json(args.kernel))
        report["alpha"] = divergence.alpha(kernel)
        check_corruption(problem, kernel)
        report["effective_count"] = report["alpha"] * args.n
    elif args.mix is not None:
        mix = mixed_from_json(load_json(args.mix))
        report["effective_count"] = mix.effective_count()
        check_corruption(problem, *(s.kernel for s in mix.sources))
    else:
        report["effective_count"] = args.n
    # lecam_corrupted and lecam_mixed are this call at their effective counts
    report["unclamped"] = lecam_replicated(problem, t1, t2, report["effective_count"], clamped=False)
    report["value"] = max(0.0, report["unclamped"])  # the clamp lecam_replicated applies
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corruptlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="contraction and reconstruction statistics of a kernel")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--loss", help="loss JSON file for the corrected sup norm")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("tables", help="closed-form vs numeric statistics on a parameter grid")
    p.add_argument("--family", required=True, help="corruption family name")
    p.add_argument("--grid", required=True, help='parameter grid "start:end:step"')
    p.add_argument("--classes", type=int, default=3, help="class count for symmetric noise")
    p.set_defaults(run=cmd_tables)

    p = sub.add_parser("plan", help="acquisition plans and source rankings under a budget")
    p.add_argument("--offers", required=True, help="offers JSON file")
    p.add_argument("--budget", required=True, help="budget as a rational, e.g. 10 or 7/2")
    p.set_defaults(run=cmd_plan)

    p = sub.add_parser("simulate", help="Monte-Carlo risk curve to CSV")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--mode", choices=["standard", "fast-rate"], default="standard")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("lecam", help="two-point lower bounds, plain or corrupted")
    p.add_argument("--problem", required=True, help="decision problem JSON file")
    p.add_argument("--theta1", required=True, help="hypothesis name or index")
    p.add_argument("--theta2", required=True, help="hypothesis name or index")
    p.add_argument("--n", type=float, default=1.0, help="replication count")
    p.add_argument("--kernel", help="corruption kernel JSON file")
    p.add_argument("--mix", help="mixed corruption JSON file (overrides --n)")
    p.set_defaults(run=cmd_lecam)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
