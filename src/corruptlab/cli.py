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
import functools
import json
import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import catalog, divergence, planner
from .bounds import check_corruption, lecam_replicated, mixed_from_json, problem_from_json, separation
from .errors import InvalidInput, InvalidParameter, NumericalFailure, ParseError, RankDeficient, SizeGuardExceeded
from .kernels import kernel_from_json
from .reconstruct import (check_loss, corrected_sup_norm, loss_from_json, op_norm_row_sum, pseudoinverse,
                          zero_one_loss)
from .schema import NONNEGATIVE, load_json, typed
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


def _statistics(kernel, loss=None) -> tuple:
    """``alpha`` of a kernel, the row norm of its pseudoinverse and the sup
    norm of ``loss`` corrected by it (None without a loss); both norms are
    None when the kernel's columns are dependent."""
    try:
        rec = pseudoinverse(kernel)
    except RankDeficient:
        return divergence.alpha(kernel), None, None
    return divergence.alpha(kernel), op_norm_row_sum(rec), None if loss is None else corrected_sup_norm(rec, loss)


def cmd_analyze(args) -> int:
    kernel = kernel_from_json(load_json(args.kernel))
    loss = None if args.loss is None else loss_from_json(load_json(args.loss))
    if loss is not None:
        check_loss(kernel, loss)  # also when there is no reconstruction to correct it with
    alpha, row_norm, corrected_sup = _statistics(kernel, loss)
    report = {"alpha": alpha, "lambda": divergence.lambda_coeff(kernel),
              "reconstructible": row_norm is not None, "row_norm": row_norm}
    _emit(report if loss is None else report | {"corrected_sup": corrected_sup})
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
        numeric = _statistics(kernel, zero_one_loss(kernel.domain))
        cells = list(zip((closed.alpha, closed.row_norm, closed.corrected01_norm), numeric))
        diffs = [abs(c - n) for c, n in cells if c is not None and n is not None]
        lines.append(",".join([
            repr(float(sigma)),
            *(_cell(value) for cell in cells for value in cell),
            _cell(max(diffs) if diffs else None),
            "" if numeric[1] is not None else "non-reconstructible",
        ]))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _budget(text: str) -> Fraction | Decimal:
    """``--budget`` as an exact number: a ratio of integers as a ``Fraction``
    and a decimal as a ``Decimal``, which the planner scales in exact decimal
    arithmetic, so no exponent builds a power of ten.  Text that neither
    reads, and a decimal that is not finite, is refused."""
    if "/" in text:  # a ratio such as 7/2
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad budget {text!r}: {exc}") from exc
    try:
        budget = Decimal(text)
    except InvalidOperation:  # not a number, or an exponent past decimal's own limit
        budget = Decimal("NaN")
    if not budget.is_finite():
        raise ParseError(f"bad budget {text!r}: expected a ratio of integers or a finite decimal")
    return budget


def cmd_plan(args) -> int:
    offers = planner.offers_from_json(load_json(args.offers))
    budget = _budget(args.budget)
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
    report = fastrate_curve(config) if args.mode == "fast-rate" else None
    csv = risk_curve(config).to_csv() if report is None else report.curve.to_csv()
    try:  # before the fast-rate JSON, so a failed write leaves stdout empty
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc}") from exc
    if report is not None:
        _emit({"ratios": {str(n): r for n, r in report.ratios}, "mean_ratio": report.mean_ratio})
    return 0


def cmd_lecam(args) -> int:
    if args.kernel is not None and args.mix is not None:
        raise InvalidParameter("give --kernel or --mix, not both")
    n = typed(args.n, "--n", NONNEGATIVE)  # printed even when --mix overrides it
    problem = problem_from_json(load_json(args.problem))
    t1, t2 = _theta_ref(args.theta1), _theta_ref(args.theta2)
    report = {
        "rho": separation(problem, t1, t2),
        "n": n,
    }
    if args.kernel is not None:
        kernel = kernel_from_json(load_json(args.kernel))
        report["alpha"] = divergence.alpha(kernel)
        check_corruption(problem, kernel)
        report["effective_count"] = report["alpha"] * n
    elif args.mix is not None:
        mix = mixed_from_json(load_json(args.mix))
        report["effective_count"] = mix.effective_count()
        check_corruption(problem, *(s.kernel for s in mix.sources))
    else:
        report["effective_count"] = n
    # lecam_corrupted and lecam_mixed are this call at their effective counts
    report["unclamped"] = lecam_replicated(problem, t1, t2, report["effective_count"], clamped=False)
    report["value"] = max(0.0, report["unclamped"])  # the clamp lecam_replicated applies
    _emit(report)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by later ones;
    ``parse_args`` keeps no state on it between calls."""
    parser = argparse.ArgumentParser(prog="corruptlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="contraction and reconstruction statistics of a kernel")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--loss", help="loss JSON file for the corrected sup norm")

    p = sub.add_parser("tables", help="closed-form vs numeric statistics on a parameter grid")
    p.add_argument("--family", required=True, help="corruption family name")
    p.add_argument("--grid", required=True, help='parameter grid "start:end:step"')
    p.add_argument("--classes", type=int, default=3, help="class count for symmetric noise")

    p = sub.add_parser("plan", help="acquisition plans and source rankings under a budget")
    p.add_argument("--offers", required=True, help="offers JSON file")
    p.add_argument("--budget", required=True, help="budget as a rational, e.g. 10 or 7/2")

    p = sub.add_parser("simulate", help="Monte-Carlo risk curve to CSV")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--mode", choices=["standard", "fast-rate"], default="standard")

    p = sub.add_parser("lecam", help="two-point lower bounds, plain or corrupted")
    p.add_argument("--problem", required=True, help="decision problem JSON file")
    p.add_argument("--theta1", required=True, help="hypothesis name or index")
    p.add_argument("--theta2", required=True, help="hypothesis name or index")
    p.add_argument("--n", type=float, default=1.0, help="replication count")
    p.add_argument("--kernel", help="corruption kernel JSON file")
    p.add_argument("--mix", help="mixed corruption JSON file (overrides --n)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a cmd_* replaced after the parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
