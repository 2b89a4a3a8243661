"""Budget-constrained acquisition of corrupted data sets.

Two complementary views of source quality are kept side by side and never
merged: the lower-bound view buys effective clean samples (maximize
sum alpha_i * n_i, an unbounded knapsack) and the upper-bound view prefers
cheap-per-guarantee sources (ascending cost * ||corrected||_inf^2).  The two
rankings usually agree but are allowed to differ.

The exact plan costs O(min(capacity, (c_b - 1) * c_max) * offers) for scaled
costs c_b of the densest offer and c_max of the dearest, whatever the budget:
some optimal plan holds at most c_b - 1 items other than the densest offer
(Gilmore and Gomory, "The theory and computation of knapsack functions"), so
a DP over that width, filled up with the densest offer, finds it.  Plans
worth the same up to ``PLAN_TIE_RTOL`` are tied, and a tie goes to the plan
with the most units of the densest offer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CapacityGuardExceeded,
    InvalidParameter,
    MissingStatistic,
    _shown,
)
from .schema import LIST, NUM, RATIONAL, STR, fields, typed

#: Largest integer-scaled budget either plan will accept.
CAPACITY_GUARD = 10**7

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
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidParameter(f"alpha must be in [0, 1], got {self.alpha!r}")
        cost = Fraction(self.unit_cost)
        if cost <= 0:
            raise InvalidParameter(f"unit cost must be positive, got {_shown(cost)}")
        object.__setattr__(self, "unit_cost", cost)
        if self.corrected_sup is not None and self.corrected_sup < 0.0:
            raise InvalidParameter("corrected_sup must be non-negative")


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


def _capacity(offers: Sequence[SourceOffer], budget: Fraction) -> tuple[int, int]:
    """The least common denominator of the costs and the budget, and the
    budget in those units; a budget past the guard is refused before any
    count is made, so no count can overflow a float."""
    if budget < 0:
        raise InvalidParameter(f"budget must be >= 0, got {_shown(budget)}")
    if not offers:
        raise InvalidParameter("need at least one offer")
    scale = math.lcm(*(o.unit_cost.denominator for o in offers), budget.denominator)
    capacity = int(budget * scale)
    if capacity > CAPACITY_GUARD:
        raise CapacityGuardExceeded(f"scaled capacity {_shown(capacity)} exceeds guard {CAPACITY_GUARD}")
    return scale, capacity


def greedy_plan(offers: Sequence[SourceOffer], budget: Fraction) -> AcquisitionPlan:
    """Buy the densest source until it no longer fits, then the next, etc."""
    budget = Fraction(budget)
    _capacity(offers, budget)
    counts: dict[str, int] = {}
    objective = 0.0
    remaining = budget
    for offer in _density_order(offers):
        n = int(remaining // offer.unit_cost)
        if n > 0:
            counts[offer.name] = counts.get(offer.name, 0) + n
            objective += offer.alpha * n
            remaining -= offer.unit_cost * n
    return AcquisitionPlan(counts=counts, objective=objective, spend=budget - remaining)


def exact_plan(offers: Sequence[SourceOffer], budget: Fraction) -> AcquisitionPlan:
    """Optimal unbounded-knapsack plan by dynamic programming.

    Rational costs are scaled to integers via the least common multiple of
    their denominators; the scaled capacity must stay within the guard.  With
    c_b the scaled cost of the densest offer and c_max the largest, the DP
    runs over the scaled spends w <= min(capacity, (c_b - 1) * c_max) alone,
    in O(that width * offers), and the plan is the best DP plan at some w
    filled up with floor((capacity - w) / c_b) densest units.  Plans within
    ``PLAN_TIE_RTOL`` of the best are tied, and the tie goes to the plan with
    the most units of the densest offer.
    """
    budget = Fraction(budget)
    scale, capacity = _capacity(offers, budget)
    ordered = _density_order(offers)
    int_costs = [int(o.unit_cost * scale) for o in ordered]
    dense, c_b = ordered[0], int_costs[0]
    # c_max >= c_b, so below c_b the width is the capacity, without a product
    # of two integers as long as the scale, which may run to a million digits
    width = capacity if capacity < c_b else min(capacity, (c_b - 1) * max(int_costs))

    best = [0.0] * (width + 1)
    choice = [-1] * (width + 1)  # -1: leave a unit of budget unused
    for w in range(1, width + 1):
        best[w] = best[w - 1]
        for idx, cost in enumerate(int_costs):
            if cost <= w:
                candidate = best[w - cost] + ordered[idx].alpha
                if candidate > best[w]:
                    best[w] = candidate
                    choice[w] = idx

    # densest units bought past w; none when every plan is worth 0, as the DP buys none
    fill = [(capacity - w) // c_b if dense.alpha > 0.0 else 0 for w in range(width + 1)]
    totals = [best[w] + dense.alpha * fill[w] for w in range(width + 1)]
    cut = max(totals) * (1.0 - PLAN_TIE_RTOL)
    # The first tied w buys the most densest units: a tied plan's other items
    # and unused budget cost some v <= w, the plan at v is worth as much, and
    # it fills floor((capacity - v) / c_b) densest units, at least as many.
    w = next(w for w in range(width + 1) if totals[w] >= cut)

    counts: dict[str, int] = {dense.name: fill[w]} if fill[w] else {}
    spend = dense.unit_cost * fill[w]
    while w > 0:
        idx = choice[w]
        if idx < 0:
            w -= 1
            continue
        counts[ordered[idx].name] = counts.get(ordered[idx].name, 0) + 1
        spend += ordered[idx].unit_cost
        w -= int_costs[idx]
    objective = sum(o.alpha * counts.get(o.name, 0) for o in ordered)
    return AcquisitionPlan(counts=counts, objective=objective, spend=spend)


def rank_sources_lower(offers: Sequence[SourceOffer]) -> list[str]:
    """Source names by decreasing alpha / cost (the knapsack greedy key)."""
    return [o.name for o in _density_order(offers)]


def rank_sources_upper(offers: Sequence[SourceOffer]) -> list[str]:
    """Source names by increasing cost * ||corrected||_inf^2."""
    for o in offers:
        if o.corrected_sup is None:
            raise MissingStatistic(f"offer {o.name!r} has no corrected_sup")
    return [o.name for o in sorted(offers, key=lambda o: (o.unit_cost * o.corrected_sup**2, o.name))]


# -- JSON wire format -----------------------------------------------------------

def offers_from_json(obj: list) -> list[SourceOffer]:
    return [
        SourceOffer(*fields(entry, f"offer {i}", ("name", STR), ("alpha", NUM), ("cost", RATIONAL),
                            optional=(("corrected_sup", NUM, None),)))
        for i, entry in enumerate(typed(obj, "offers", LIST))
    ]
