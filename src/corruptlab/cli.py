"""Command-line front end.

Subcommands: ``analyze`` a kernel file, reproduce closed-form ``tables`` on a
parameter grid, ``plan`` acquisitions against a budget, ``simulate`` risk
curves, and evaluate ``lecam`` lower bounds.  JSON in, JSON or CSV out; all
output is byte-stable for fixed inputs and seeds.

``tables`` sweeps one family along the grid: every probability parameter is
set to the grid value sigma and ``classes`` (if the family has it) to
``--classes``.  Every point is checked before the points are counted or any
kernel is built; then the count is bounded by ``GRID_POINT_GUARD`` and the
work, grid points times m(m-1)k/2 + m^2 k for k x m kernels, by
``TABLE_WORK_GUARD``.  The grid is then taken in chunks of at most
``STACK_CHUNK_ENTRIES`` of that work: each chunk's kernels are one (G, k, m)
stack, :func:`divergence.stacked_extremes` runs the pair pass on it, screened
or not as the kernels' shape asks, and :func:`reconstruct.statistics` one
stacked SVD, the residuals and the norms.  ``analyze`` runs
:func:`reconstruct.statistics` on its one kernel, checks the residual, and
then takes alpha and lambda, one pass, from :func:`divergence.alpha` and
:func:`divergence.lambda_coeff`.

``main`` builds its parser once per process and parses each argv once: an
argv that starts with a subcommand's name goes straight to that subcommand's
parser, as the top-level parser would pass it on, and any other argv to the
top-level parser, which refuses it or prints its help.

Exit codes: 0 success, 2 invalid input, 3 numerical failure or tripped guard.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from . import catalog, divergence, planner, reconstruct
from .bounds import check_corruption, lecam_replicated, mixed_from_json, problem_from_json, separation
from .errors import InvalidInput, InvalidParameter, NumericalFailure, ParseError, SizeGuardExceeded, _escaped, guard
from .kernels import kernel_from_json
from .reconstruct import check_loss, loss_from_json
from .schema import NONNEGATIVE, load_json, typed
from .simlab import config_from_json, fastrate_curve, risk_curve

TABLE_HEADER = (
    "param,alpha_closed,alpha_numeric,row_norm_closed,row_norm_numeric,"
    "corrected01_closed,corrected01_numeric,max_abs_diff,flag"
)

#: Most points a ``tables --grid`` may hold.
GRID_POINT_GUARD = 10**5

#: Most work a ``tables`` run may do, in entries: grid points times the
#: m(m-1)k/2 entries of a k x m kernel's column pairs and the m^2 k of its
#: SVD.  It binds before ``GRID_POINT_GUARD`` from 24 classes up, and the
#: longest runs it admits are there: 86,486 points of 25 classes took 12.6
#: to 17.3 s (6.3 to 8.6 ns an entry), and 13,798 points of 46 classes 9.7
#: to 13.3 s, on a 2-core Xeon shared with other work.
TABLE_WORK_GUARD = 2 * 10**9

#: Most work entries, counted as for ``TABLE_WORK_GUARD``, in one stacked
#: pass.  Measured on a 2-core Xeon: 2^16 costs up to 3x more at 40 classes
#: and 10% more at 7; 2^22 gains nothing below 40 classes.
STACK_CHUNK_ENTRIES = 2**20


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _grid(text: str):
    """The points of a ``tables --grid`` "start:end:step", as a function of
    k, and their number, found without listing them.  Point k is ``start + k
    * step``, rounded to 12 decimals for clean labels, while that sum is at
    most ``end + 1e-12``.  The sums rise with k, as ``*`` and ``+`` round
    monotonically, so when the count read from the span is off, by rounding
    or because a step below the float spacing at start repeats points, it is
    found by bisection.  Past ``sys.maxsize`` points, where k no longer fits
    an index, the count and the points are taken in the reals."""
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
    top = end + 1e-12

    def past(k):
        return start + k * step > top

    guess = (top - start) / step + 1
    count = int(guess) if 1 <= guess < sys.maxsize else 0
    if not past(count) or count and past(count - 1):  # off by rounding, or points repeat
        count = bisect.bisect_left(range(sys.maxsize), True, key=past)
    if count == sys.maxsize:
        count = max(count, math.floor((Fraction(top) - Fraction(start)) / Fraction(step)) + 1)

    def point(k):
        return round(start + k * step if k < sys.maxsize else float(Fraction(start) + k * Fraction(step)), 12)

    return point, count


def _theta_ref(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def cmd_analyze(args) -> int:
    kernel = kernel_from_json(load_json(args.kernel))
    loss = None if args.loss is None else loss_from_json(load_json(args.loss))
    if loss is not None:
        check_loss(kernel, loss)  # also when there is no reconstruction to correct it with
    residual, *norms = reconstruct.statistics(kernel.matrix, None if loss is None else loss.values)
    reconstruct.check_residual(float(residual))  # before alpha, whose own check comes second
    row_norm, corrected = (None if a is None or math.isnan(a) else float(a) for a in norms)
    report = {"alpha": divergence.alpha(kernel), "lambda": divergence.lambda_coeff(kernel),
              "reconstructible": row_norm is not None, "row_norm": row_norm}
    _emit(report if loss is None else report | {"corrected_sup": corrected})
    return 0


def _cells(values: np.ndarray) -> list[str]:
    return ["" if math.isnan(x) else repr(x) for x in values.tolist()]


def cmd_tables(args) -> int:
    family = catalog.family(args.family)  # an unknown family fails before the grid is read
    names = family.params
    point, count = _grid(args.grid)

    def values(part):
        return [args.classes if key == "classes" else np.array(part) for key in names]

    def spec(sigma):
        return catalog.make_spec(args.family, **{key: args.classes if key == "classes" else sigma for key in names})

    def fails(k):
        try:
            spec(point(k))
        except InvalidInput:
            return True
        except SizeGuardExceeded:  # the class count's guard, which every valid point trips alike
            pass
        return False

    lines = [TABLE_HEADER]
    if count:
        # Every point is checked before any guard.  The points differ only in
        # sigma, which rises along the grid, and a probability's range is an
        # interval: when both ends pass, every point does.  The last point is
        # checked past the class count's guard; when it fails, the first
        # failing point raises, found by bisection past a valid first point,
        # as the failing points then come last.  Then the first point is
        # checked, and the class count with it.
        if fails(count - 1):
            spec(point(0 if fails(0) else bisect.bisect_left(range(min(count, sys.maxsize)), True, key=fails)))
            spec(point(count - 1))
        spec(point(0))
        guard(count, GRID_POINT_GUARD, f"grid {args.grid!r} point count")
        _, k, m = catalog.build_kernels(args.family, *values([]))[2].shape  # from a stack of no kernels
        per_point = m * (m - 1) * k // 2 + m * m * k
        guard(count * per_point, TABLE_WORK_GUARD, f"tables work, {count} points x {per_point} entries =")
        sigmas = list(map(point, range(count)))
        size = max(1, STACK_CHUNK_ENTRIES // per_point)
        for start in range(0, len(sigmas), size):
            part = values(sigmas[start:start + size])
            matrices = catalog.build_kernels(args.family, *part)[2]
            residual, row_norm, corrected = reconstruct.statistics(matrices, 1.0 - np.eye(m))
            alpha, lam = divergence.stacked_extremes(matrices)
            failing = ~(residual <= reconstruct.RESIDUAL_ATOL) | (
                np.abs((1.0 - lam) - alpha) > divergence.ALPHA_CONSISTENCY_ATOL)
            if failing.any():  # the first failing point raises, its residual checked first
                i = int(np.argmax(failing))
                reconstruct.check_residual(float(residual[i]))
                divergence.check_extremes(float(alpha[i]), float(lam[i]))
            closed = family.stats(*part)
            numeric = (alpha, row_norm, corrected)
            diff = np.fmax.reduce([np.abs(c - n) for c, n in zip(closed, numeric)])
            columns = [_cells(a) for pair in zip(closed, numeric) for a in pair]
            flags = ["non-reconstructible" if singular else "" for singular in np.isnan(row_norm).tolist()]
            lines += map(",".join, zip(map(repr, sigmas[start:start + size]), *columns, _cells(diff), flags))
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
        raise ParseError(f"cannot write {_escaped(args.out)}: {exc}") from exc
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ParseError`, so
    ``main`` prints them on one line and exits 2; its subparsers are of this
    class too.  The top-level parser's ``commands`` maps each subcommand's
    name to its parser."""

    def error(self, message):
        raise ParseError(_escaped(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by later ones;
    ``parse_args`` keeps no state on it between calls."""
    parser = _Parser(prog="corruptlab")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # The top-level parser hands every string after a subcommand's name to
        # that subcommand's parser unchanged, so a call that names one is
        # parsed by it alone; any other argv is the top-level parser's.
        command = parser.commands.get(argv[0]) if argv else None
        args = (parser.parse_args(argv) if command is None
                else command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
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
