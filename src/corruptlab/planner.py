"""Budget-constrained acquisition of corrupted data sets.

Two complementary views of source quality are kept side by side and never
merged: the lower-bound view buys effective clean samples (maximize
sum alpha_i * n_i, an unbounded knapsack) and the upper-bound view prefers
cheap-per-guarantee sources (ascending cost * ||corrected||_inf^2).  The two
rankings usually agree but are allowed to differ.

Both plans count in one integer unit, 1/scale for scale the least common
multiple of the costs' denominators.  The budget is read in that unit and
rounded down, which loses no plan, since every cost is a whole number of
units, and the guard applies to the budget's exact value in that unit; so
the way a budget is written never sizes the DP.  A ``Decimal`` budget is
scaled in exact decimal arithmetic, so its exponent never builds a power of
ten.  Each plan counts units per offer, densest offer first, and one
assembler turns those counts into the plan, its objective and its spend.
Plans and rankings name an offer only by its name, so offers must have
distinct names.

A list of offers is read once, as :class:`Offers`, which
``offers_from_json`` returns: the names are checked, the offers put in
density order and their costs scaled at first use, and both plans and both
rankings of the list read that one view.  A plain list gets the same view
per call; the budget is always typed before the offers are read.

The exact plan costs O(W * offers) for a DP width W of at most
min(capacity, (c_b - 1) * c_max), for scaled costs c_b of the densest offer
the budget can buy and c_max of the dearest within the budget, whatever the
budget: some optimal plan holds at most c_b - 1 items other than that offer
(Gilmore and Gomory, "The theory and computation of knapsack functions"),
each costing at most the budget, so a DP over that width, filled up with
that offer, finds it.  W is also at most about d_b * (c_b - 1) / (d_b - d_2)
for d_b that offer's density and d_2 the next largest among the offers the
budget can buy, and 0 when it can buy no other (see ``exact_plan``): the
less dense the runner-up, the fewer cells the DP needs.  W times the
offers that take a pass is bounded by ``PLAN_WORK_GUARD``.  The DP takes one
max-plus scan per offer, a fixed number of numpy calls over the whole width
(see ``exact_plan``), and the walk back follows the offer each cell was last
improved by.  Plans worth the same up to ``PLAN_TIE_RTOL`` are tied, and a
tie goes to the plan with the most units of the densest offer the budget
can buy.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityGuardExceeded, InvalidParameter, MissingStatistic, guard
from .schema import (INT, LIST, NUM, PROBABILITY, RATIONAL, STR, fields, instance_of, list_of, maybe, read_fields,
                     typed, within)


def _exact(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(INT[2](v) if isinstance(v, numbers.Integral) else NUM[2](v))


#: The kind of a cost: a Fraction as it is, any other integer or finite real
#: as its exact value.
EXACT = (InvalidParameter, "an integer, a Fraction or a finite number", _exact)

#: The kind of a unit cost: positive, nonzero as a double and at most a
#: double's largest value, since the ranking keys use it as a double.  A
#: Fraction rounds to 0.0 exactly when it is at most 2**-1075, half the least
#: subnormal (that tie rounds to the even 0.0), so the range opens there.
#: The ends are compared in integers: n / d > 2**-1075 when d < n * 2**1075,
#: and n / d is at most the largest double, an integer, when n is at most it
#: times d.
_UNIT_COST = within(EXACT, Fraction(1, 2**1075), sys.float_info.max, "(]",
                    lambda v: v.denominator < v.numerator << 1075
                    and v.numerator <= int(sys.float_info.max) * v.denominator)

#: The kind of a budget: at least 0, and a finite Decimal as it is, since a
#: Fraction of one builds 10**exponent, else read as ``EXACT``.
BUDGET = within((*EXACT[:2], lambda v: v if isinstance(v, Decimal) and v.is_finite() else _exact(v)), 0)

#: The kind of an offer's ``corrected_sup``: at most the root of a double's
#: largest value, since the upper key squares it.
_CORRECTED_SUP = maybe(within(NUM, 0, math.sqrt(sys.float_info.max)))

#: Largest budget, in units of 1/scale, either plan will accept.
CAPACITY_GUARD = 10**7

#: Largest exact-plan DP, in cells times the offers that take a pass: at
#: about 15 ns a cell per offer at a width of 10**7, about 1.5 s.
PLAN_WORK_GUARD = 10**8

#: Plans whose objectives differ by at most this fraction of the best are
#: tied; a constant, not an option.
PLAN_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SourceOffer:
    """A purchasable corrupted-data source with its derived statistics."""

    name: str
    alpha: float
    unit_cost: Fraction
    corrected_sup: float | None = None

    def __post_init__(self):
        read_fields(self, "offer", name=STR, alpha=PROBABILITY, unit_cost=_UNIT_COST, corrected_sup=_CORRECTED_SUP)


#: The kind of a list of offers.
OFFERS = list_of(instance_of(SourceOffer), "a list of SourceOffer")


class Offers(tuple):
    """A non-empty list of offers, read once: built from a sequence of
    :class:`SourceOffer` (typed as ``OFFERS``), or as itself from an
    ``Offers``.  Its density order and its scaled costs are computed at
    first use and kept, so both plans and both rankings of one list share
    them."""

    def __new__(cls, offers: Sequence[SourceOffer]):
        return offers if type(offers) is cls else super().__new__(cls, typed(offers, "offers", OFFERS))

    @functools.cached_property
    def ordered(self) -> list[SourceOffer]:
        """The offers by decreasing alpha / cost; ties go to the lower cost,
        then the name.  Offers sharing a name are refused."""
        names = sorted(o.name for o in self)
        for a, b in zip(names, names[1:]):
            if a == b:
                raise InvalidParameter(f"offer name {a!r} appears more than once")
        return _density_order(self)

    @functools.cached_property
    def scaled(self) -> tuple[list[int], int]:
        """The costs of ``ordered`` in units of 1/scale, for scale the least
        common multiple of the costs' denominators, and scale."""
        scale = math.lcm(*(o.unit_cost.denominator for o in self))
        return [o.unit_cost.numerator * (scale // o.unit_cost.denominator) for o in self.ordered], scale


@dataclass(frozen=True)
class AcquisitionPlan:
    """Counts to buy per source, with the objective sum alpha_i * n_i."""

    counts: dict[str, int]
    objective: float
    spend: Fraction

    def to_json(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "objective": self.objective,
            "spend": {"num": self.spend.numerator, "den": self.spend.denominator},
        }


def _density_order(offers: Sequence[SourceOffer]) -> list[SourceOffer]:
    # Highest alpha-per-cost first; ties broken by lower cost, then name.
    return sorted(offers, key=lambda o: (-(o.alpha / o.unit_cost), o.unit_cost, o.name))


#: Exact decimal arithmetic, in which a Decimal past Emax is infinite.
_EXACT_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


def _scaled(offers: Sequence[SourceOffer], budget) -> tuple[list[SourceOffer], list[int], int, int]:
    """The offers densest first, their costs in units of 1/scale (both read
    once per list: see :class:`Offers`), the budget in those units rounded
    down, and scale.  The budget is typed first, then the offers; offers
    sharing a name are refused, and so is a budget whose exact value in those
    units is past the guard, before any count is made, so no count can
    overflow a float; the budget's own denominator never enters the scale."""
    budget, offers = typed(budget, "budget", BUDGET), Offers(offers)
    costs, scale = offers.scaled
    with localcontext(_EXACT_DECIMAL):
        capacity = budget * scale
    guard(capacity, CAPACITY_GUARD, "scaled capacity", CapacityGuardExceeded)
    return offers.ordered, costs, math.floor(capacity), scale


def _plan(ordered: list[SourceOffer], costs: list[int], counts: list[int], scale: int) -> AcquisitionPlan:
    """The plan buying ``counts[i]`` units of ``ordered[i]`` at scaled cost
    ``costs[i]``: the offers bought, sum alpha_i * n_i in density order and
    sum c_i * n_i / scale."""
    return AcquisitionPlan(counts={o.name: n for o, n in zip(ordered, counts) if n},
                           objective=sum(o.alpha * n for o, n in zip(ordered, counts)),
                           spend=Fraction(sum(c * n for c, n in zip(costs, counts)), scale))


def greedy_plan(offers: Sequence[SourceOffer], budget: Fraction | Decimal) -> AcquisitionPlan:
    """Buy the densest source until it no longer fits, then the next, etc."""
    ordered, costs, remaining, scale = _scaled(offers, budget)
    counts = []
    for cost in costs:
        counts.append(remaining // cost)
        remaining %= cost
    return _plan(ordered, costs, counts, scale)


def _best(costs: list[int], alphas: list[float], width: int) -> tuple[np.ndarray, np.ndarray]:
    """best[w], the most sum alpha_i n_i over counts with sum c_i n_i <= w,
    for w = 0..width, and pick[w], the last offer whose pass strictly
    improved cell w, or -1.  Each offer of cost c at most the width takes one
    pass, best'[w] = max(best[w], max over j >= 1 of best[w - j c] + j alpha),
    on the cells viewed as rows of c columns in one buffer that all passes
    share (see ``exact_plan``); a cost past the width buys nothing."""
    best = np.zeros(width + 1)
    pick = np.full(width + 1, -1, np.min_scalar_type(-len(costs)))
    grid = np.empty(width + max((c for c in costs if c <= width), default=1))
    for k, (c, alpha) in enumerate(zip(costs, alphas)):
        if c > width:
            continue
        rows = -(-(width + 1) // c)
        flat = grid[:rows * c]
        flat[:width + 1] = best
        flat[width + 1:] = -math.inf
        scan, steps = flat.reshape(rows, c), np.arange(rows + 1.0)
        steps *= alpha
        scan -= steps[:-1, None]
        np.fmax.accumulate(scan, axis=0, out=scan)  # no NaN here, and fmax is the faster scan
        scan += steps[1:, None]
        buys = flat[:width + 1 - c]  # row i holds row i + 1's candidate: cell w's at w - c
        pick[c:][buys > best[c:]] = k
        np.maximum(best[c:], buys, out=best[c:])
    return best, pick


def exact_plan(offers: Sequence[SourceOffer], budget: Fraction | Decimal) -> AcquisitionPlan:
    """Optimal unbounded-knapsack plan by dynamic programming.

    Rational costs are scaled to integers by the least common multiple of
    their denominators, and the budget is read in those units and rounded
    down, which loses no plan, as every cost is a whole number of units;
    the budget's exact value in those units must stay within the guard.
    With b the densest offer the budget can buy, c_b its scaled cost and
    c_max the largest scaled cost at most the capacity, the DP runs over the
    scaled spends w <= W alone, in O(W * offers), and the plan is the best DP
    plan at some w filled up with floor((capacity - w) / c_b) units of b.
    Plans within ``PLAN_TIE_RTOL`` of the best are tied, and the tie goes to
    the plan with the most units of b.  Nothing is bought when no offer fits.

    The width.  W is min(capacity, (c_b - 1) * c_max), the Gilmore-Gomory
    width, and also at most floor(L / (d_b - d_2)) when d_b > d_2; W is 0
    when b is the only offer the budget can buy.  Here d_b = alpha_b / c_b,
    d_2 is the largest alpha_i / c_i of the other offers the budget can buy,
    both exact fractions of the float alpha, and
    L = d_b * (c_b - 1) + 2 * PLAN_TIE_RTOL * alpha_b * floor(capacity / c_b).
    It is computed in integers: a float is n / 2**k exactly
    (``as_integer_ratio``), so with the alphas written over one power of two
    and PLAN_TIE_RTOL as t / u, floor(L / (d_b - d_2)) is
    a_b * c_2 * (u * (c_b - 1) + 2 * t * floor(capacity / c_b) * c_b)
    // (u * (a_b * c_2 - a_2 * c_b)), the same W as in exact fractions.
    Why it holds: take a plan whose items other than b, S, cost s and which
    holds n_b units of b.  It is worth
    d_b * (s + c_b * n_b) - sum over S of n_i * (d_b - d_i) * c_i, at most
    d_b * capacity - (d_b - d_2) * s, while the plan of b alone is worth
    V_b = alpha_b * floor(capacity / c_b) >= d_b * (capacity - c_b + 1).  So
    a plan tied with the best, which is worth at least V_b, within
    ``PLAN_TIE_RTOL`` has (d_b - d_2) * s <= L.  The DP's first tied cell is
    the spend of such an S: at an earlier cell its items would be worth as
    much with as many units of b, and a unit of b among them would be worth
    as much one c_b earlier.  The first cell holding the largest total is
    such a spend for the same reasons.  A cell depends only on smaller
    cells, so every cell up to W holds the bits it holds in the wider DP, and
    the chosen w, the walk back and the plan are the same.  The factor 2 on
    the tolerance absorbs the float error of the totals, about 1e-15 of
    their value; only a total within that error of the tie cut itself,
    where no float DP decides the tie, could move.  The bound is the density
    gap's, a dominance bound in the sense of Martello and Toth, "Knapsack
    Problems".

    The DP takes one max-plus scan per offer, densest first (see ``_best``),
    in a fixed number of numpy calls per offer whatever the width or the
    cheapest cost.  A pass of cost c and value alpha gives the cell
    w = r + (i + 1) * c the candidate max over i' <= i of
    (best[r + i' * c] - i' * alpha) + (i + 1) * alpha, which buys
    j = i + 1 - i' >= 1 units.  The cell's own value (j = 0) never goes
    through that sum, since best[w] - i * alpha + i * alpha can round above
    best[w] and would read as a unit bought for nothing: a cell changes only
    when a candidate that buys a unit is strictly greater.  A cell may differ
    by rounding from the chained sums best[w - c] + alpha of a loop over the
    cells; the objective is summed from the counts, and ``PLAN_TIE_RTOL``
    absorbs such differences.  The walk back reads pick[w], the offer whose
    pass last improved w, and steps back by its cost: one step per unit
    bought, with no float equality.  W times the offers that take a pass is
    counted before the DP allocates, and past ``PLAN_WORK_GUARD`` the plan
    is refused.
    """
    ordered, costs, capacity, scale = _scaled(offers, budget)
    # b is 0 when no offer fits: its cost is then past the capacity, so the
    # width is 0 and it fills no unit
    b = next((i for i, c in enumerate(costs) if c <= capacity), 0)
    c_b, alpha_b = costs[b], ordered[b].alpha
    others = [i for i in range(b + 1, len(costs)) if costs[i] <= capacity]
    width = 0
    if others:
        width = min(capacity, (c_b - 1) * max(c_b, *(costs[i] for i in others)))
        # the alphas as a_i / 2**e for one e, so each density is a_i / (2**e * c_i)
        ratios = [ordered[i].alpha.as_integer_ratio() for i in (b, *others)]
        unit = max(d for _, d in ratios)
        a_b, *a_others = (n * (unit // d) for n, d in ratios)
        a_2, c_2 = 0, 1  # the runner-up: the largest a_i / c_i of the others
        for a, i in zip(a_others, others):
            if a * c_2 > a_2 * costs[i]:
                a_2, c_2 = a, costs[i]
        if a_b * c_2 > a_2 * c_b:  # floor(L / (d_b - d_2)), its 2**e cancelled
            tol, tol_unit = PLAN_TIE_RTOL.as_integer_ratio()
            width = min(width, a_b * c_2 * (tol_unit * (c_b - 1) + 2 * tol * (capacity // c_b) * c_b)
                        // (tol_unit * (a_b * c_2 - a_2 * c_b)))
    passes = sum(c <= width for c in costs)
    guard(width * passes, PLAN_WORK_GUARD, f"exact-plan work, width {width} x {passes} offers =")
    best, pick = _best(costs, [o.alpha for o in ordered], width)

    # units of b bought past w, whole numbers below 2**53, so exact as floats;
    # none when every plan is worth 0, as the DP buys none
    fill = ((np.arange(capacity, capacity - width - 1, -1) // c_b).astype(float) if alpha_b > 0.0 and c_b <= capacity
            else np.zeros(width + 1))
    totals = alpha_b * fill
    totals += best
    # The first tied w buys the most units of b: a tied plan's other items
    # and unused budget cost some v <= w, the plan at v is worth as much, and
    # it fills floor((capacity - v) / c_b) units of b, at least as many.
    w = int(np.argmax(totals >= totals.max() * (1.0 - PLAN_TIE_RTOL)))

    counts = [0] * len(ordered)
    counts[b] = int(fill[w])
    while (k := pick[w]) >= 0:
        counts[k] += 1
        w -= costs[k]
    return _plan(ordered, costs, counts, scale)


def rank_sources_lower(offers: Sequence[SourceOffer]) -> list[str]:
    """Source names by decreasing alpha / cost (the knapsack greedy key)."""
    return [o.name for o in Offers(offers).ordered]


def rank_sources_upper(offers: Sequence[SourceOffer]) -> list[str]:
    """Source names by increasing cost * ||corrected||_inf^2."""
    offers = Offers(offers).ordered
    for o in offers:
        if o.corrected_sup is None:
            raise MissingStatistic(f"offer {o.name!r} has no corrected_sup")
    return [o.name for o in sorted(offers, key=lambda o: (o.unit_cost * o.corrected_sup**2, o.name))]


# -- JSON wire format -----------------------------------------------------------

def offers_from_json(obj: list) -> Offers:
    return Offers([
        SourceOffer(*fields(entry, f"offer {i}", "name", "alpha", ("cost", RATIONAL),
                            optional=(("corrected_sup", None),)))
        for i, entry in enumerate(typed(obj, "offers", LIST))
    ])
