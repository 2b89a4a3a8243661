"""Acquisition planning: greedy and exact knapsack, source rankings."""

import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corruptlab import cli, errors, planner
from corruptlab.planner import (
    CAPACITY_GUARD,
    PLAN_TIE_RTOL,
    AcquisitionPlan,
    Offers,
    SourceOffer,
    _density_order,
    exact_plan,
    greedy_plan,
    offers_from_json,
    rank_sources_lower,
    rank_sources_upper,
)

from helpers import fraction_width, gilmore_gomory_plan


def brute_force_objective(offers, budget):
    """Enumerate every feasible count vector (oracle for small instances)."""
    best = 0.0

    def recurse(i, remaining, value):
        nonlocal best
        if i == len(offers):
            best = max(best, value)
            return
        cost = offers[i].unit_cost
        for n in range(int(remaining // cost) + 1):
            recurse(i + 1, remaining - cost * n, value + offers[i].alpha * n)

    recurse(0, Fraction(budget), 0.0)
    return best


def full_capacity_plan(offers, budget):
    """The DP over every scaled spend up to the capacity (oracle): densest
    offer first, a cell changes only on a strict improvement."""
    budget = Fraction(budget)
    scale = math.lcm(*(o.unit_cost.denominator for o in offers), budget.denominator)
    capacity = int(budget * scale)
    ordered = _density_order(offers)
    int_costs = [int(o.unit_cost * scale) for o in ordered]

    best = [0.0] * (capacity + 1)
    choice = [-1] * (capacity + 1)
    for w in range(1, capacity + 1):
        best[w] = best[w - 1]
        for idx, cost in enumerate(int_costs):
            if cost <= w:
                candidate = best[w - cost] + ordered[idx].alpha
                if candidate > best[w]:
                    best[w] = candidate
                    choice[w] = idx

    counts = {}
    spend = Fraction(0)
    w = capacity
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


def fraction_greedy_plan(offers, budget):
    """The greedy plan counted in fractions of the budget (oracle)."""
    budget = Fraction(budget)
    counts = {}
    objective = 0.0
    remaining = budget
    for offer in _density_order(offers):
        n = int(remaining // offer.unit_cost)
        if n > 0:
            counts[offer.name] = counts.get(offer.name, 0) + n
            objective += offer.alpha * n
            remaining -= offer.unit_cost * n
    return AcquisitionPlan(counts=counts, objective=objective, spend=budget - remaining)


def random_offers(rng, max_offers=4, max_cost=7):
    count = int(rng.integers(1, max_offers + 1))
    return [
        SourceOffer(
            name=f"s{i}",
            alpha=float(np.round(rng.uniform(0.05, 1.0), 3)),
            unit_cost=Fraction(int(rng.integers(1, max_cost + 1))),
            corrected_sup=float(np.round(rng.uniform(0.5, 3.0), 3)),
        )
        for i in range(count)
    ]


def dp_width(costs, capacity):
    """The Gilmore-Gomory width for scaled costs densest first: c_b - 1
    times the largest cost within the capacity, cut by the capacity."""
    return min(capacity, (costs[0] - 1) * max((c for c in costs if c <= capacity), default=0))


class _Counted(Exception):
    """Raised in place of the exact plan's DP once its width is counted."""


def dp_widths(offers, *budgets, dp=True):
    """The width of the exact plan's DP at each budget, counted by ``_best``;
    with ``dp`` false, each plan stops there, before the DP runs."""
    seen = []

    def counted(costs, alphas, width):
        seen.append(width)
        if not dp:
            raise _Counted
        return best(costs, alphas, width)

    best, planner._best = planner._best, counted
    try:
        for budget in budgets:
            try:
                exact_plan(offers, budget)
            except _Counted:
                pass
    finally:
        planner._best = best
    return seen


class TestGreedy:
    def test_zero_budget(self):
        plan = greedy_plan([SourceOffer("A", 0.9, 3)], 0)
        assert plan.counts == {} and plan.objective == 0.0 and plan.spend == 0

    def test_prefers_denser_source(self):
        offers = [SourceOffer("A", 0.9, 3), SourceOffer("B", 0.5, 1)]
        plan = greedy_plan(offers, 10)
        assert plan.counts == {"B": 10}
        assert plan.objective == pytest.approx(5.0, abs=1e-12)
        assert brute_force_objective(offers, 10) == pytest.approx(5.0, abs=1e-12)

    def test_single_offer_buys_floor(self):
        plan = greedy_plan([SourceOffer("A", 0.7, 2)], 7)
        assert plan.counts == {"A": 3}
        assert plan.spend == 6
        assert plan.objective == pytest.approx(2.1, abs=1e-12)

    def test_spend_never_exceeds_budget(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            offers = random_offers(rng)
            budget = Fraction(int(rng.integers(0, 40)))
            plan = greedy_plan(offers, budget)
            assert plan.spend <= budget

    def test_fractional_costs(self):
        offers = [SourceOffer("A", 0.6, Fraction(1, 2)), SourceOffer("B", 0.9, Fraction(4, 3))]
        plan = greedy_plan(offers, Fraction(7, 3))
        assert plan.spend <= Fraction(7, 3)
        # density 1.2 vs 0.675: buy A four times (spend 2), leftover 1/3 buys nothing
        assert plan.counts == {"A": 4}


class TestExact:
    def test_beats_naive_density_choice(self):
        offers = [SourceOffer("A", 0.9, 3), SourceOffer("B", 0.5, 2)]
        plan = exact_plan(offers, 4)
        assert plan.counts == {"B": 2}
        assert plan.objective == pytest.approx(1.0, abs=1e-12)

    def test_single_offer_matches_floor(self):
        for budget in range(0, 20):
            plan = exact_plan([SourceOffer("A", 0.7, 3)], budget)
            assert plan.counts.get("A", 0) == budget // 3

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(409)
        for _ in range(50):
            offers = random_offers(rng)
            budget = Fraction(int(rng.integers(0, 31)))
            plan = exact_plan(offers, budget)
            assert plan.objective == pytest.approx(
                brute_force_objective(offers, budget), abs=1e-9)
            assert plan.spend <= budget

    def test_full_sweep_small_capacities(self):
        rng = np.random.default_rng(419)
        for _ in range(25):
            offers = random_offers(rng)
            for budget in range(0, 31):
                plan = exact_plan(offers, budget)
                assert plan.objective == pytest.approx(
                    brute_force_objective(offers, budget), abs=1e-9)

    def test_dominates_greedy(self):
        rng = np.random.default_rng(421)
        for _ in range(300):
            offers = random_offers(rng)
            budget = Fraction(int(rng.integers(0, 40)))
            assert exact_plan(offers, budget).objective >= \
                greedy_plan(offers, budget).objective - 1e-12

    def test_greedy_half_guarantee_when_everything_fits(self):
        rng = np.random.default_rng(431)
        for _ in range(1000):
            offers = random_offers(rng)
            max_cost = max(o.unit_cost for o in offers)
            budget = max_cost + int(rng.integers(0, 25))
            greedy = greedy_plan(offers, budget).objective
            exact = exact_plan(offers, budget).objective
            assert greedy >= 0.5 * exact - 1e-12

    def test_fractional_costs_scaled_exactly(self):
        offers = [SourceOffer("A", 0.5, Fraction(1, 2)), SourceOffer("B", 0.8, Fraction(2, 3))]
        plan = exact_plan(offers, Fraction(5, 3))
        assert plan.objective == pytest.approx(
            brute_force_objective(offers, Fraction(5, 3)), abs=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(errors.CapacityGuardExceeded):
            exact_plan([SourceOffer("A", 0.5, Fraction(1, 10**6))], 100)


class TestExchangeBound:
    """The DP runs only to at most W = (c_b - 1) * c_max, for c_max the
    largest cost within the budget, and fills up with the densest offer."""

    def test_matches_full_capacity_dp(self):
        rng = np.random.default_rng(433)
        for _ in range(200):
            count = int(rng.integers(1, 5))
            offers = [SourceOffer(f"s{i}", float(rng.uniform(0.05, 1.0)),
                                  Fraction(int(rng.integers(1, 25)), int(rng.integers(1, 4))))
                      for i in range(count)]
            scale = math.lcm(*(o.unit_cost.denominator for o in offers))
            costs = [int(o.unit_cost * scale) for o in _density_order(offers)]
            width = dp_width(costs, math.inf)
            for capacity in {max(width - 1, 0), width, width + 1, 5 * width}:
                budget = Fraction(capacity, scale)
                assert exact_plan(offers, budget).to_json() == \
                    full_capacity_plan(offers, budget).to_json(), (offers, capacity)

    @pytest.mark.parametrize("den", [7, 10, 1000])
    def test_budget_denominator_outside_the_costs_unit(self, den):
        # the plans read the budget in the costs' unit, rounded down; the oracles
        # count in the finer unit that also divides the budget, and in fractions
        rng = np.random.default_rng(439 + den)
        for _ in range(30):
            count = int(rng.integers(1, 5))
            offers = [SourceOffer(f"s{i}", float(rng.uniform(0.05, 1.0)),
                                  Fraction(int(rng.integers(1, 25)), int(rng.integers(1, 4))))
                      for i in range(count)]
            budget = Fraction(int(rng.integers(0, 2000)), den)
            assert exact_plan(offers, budget).to_json() == \
                full_capacity_plan(offers, budget).to_json(), (offers, budget)
            assert greedy_plan(offers, budget).to_json() == \
                fraction_greedy_plan(offers, budget).to_json(), (offers, budget)

    def test_budget_digits_do_not_size_the_dp(self):
        # 99.9999 in the costs' unit is 99, the same 10-cell DP; a unit that divided
        # the budget would fill 999,999 cells
        offers = [SourceOffer("A", 0.5, 3), SourceOffer("B", 0.7, 5)]

        def best_of_7(budget):
            times = []
            for _ in range(7):
                start = time.perf_counter()
                exact_plan(offers, budget)
                times.append(time.perf_counter() - start)
            return min(times)

        assert exact_plan(offers, Fraction("99.9999")) == exact_plan(offers, 99)
        assert best_of_7(Fraction("99.9999")) < 10 * best_of_7(99)

    def test_dp_memory_stops_growing_at_the_width(self):
        # costs 13 (the densest, twice, so no density gap narrows the DP), 97 and
        # 101 give W = 12 * 101 = 1,212 cells; a DP over the whole capacity of
        # 10**7 would hold tens of MB
        offers = [SourceOffer("A", 0.9, 13), SourceOffer("A2", 0.9, 13), SourceOffer("B", 0.5, 97),
                  SourceOffer("C", 0.6, 101)]
        width = (13 - 1) * 101
        assert dp_widths(offers, width) == [width]

        def peak(budget):
            tracemalloc.start()
            try:
                exact_plan(offers, budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at_width = peak(width)
        for budget in (10 * width, 10**3 * width, CAPACITY_GUARD):
            assert peak(budget) <= 2 * at_width, (budget, peak(budget), at_width)

    def test_unbuyable_offer_does_not_widen_the_dp(self):
        # costs 30 and 31, as dense, give W = 29 * 31 = 899 cells; an offer of cost
        # 10**300 counted in the width would size the DP to the whole capacity of 10**7
        offers = [SourceOffer("A", 30 / 64, 30), SourceOffer("B", 31 / 64, 31)]
        assert dp_widths(offers, 10**7) == [899]
        dear = offers + [SourceOffer("D", 1.0, 10**300)]
        tracemalloc.start()
        try:
            plan = exact_plan(dear, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan == exact_plan(offers, 10**7)
        assert peak < 2**20, peak

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_offer_dearer_than_the_budget_changes_no_plan(self, data):
        count = data.draw(st.integers(1, 4))
        alphas = st.sampled_from([0.0, 0.2, 0.3, 0.6, 1.0]) | st.floats(0.0, 1.0)
        offers = [SourceOffer(f"s{i}", data.draw(alphas), Fraction(data.draw(st.integers(1, 40)),
                                                                   data.draw(st.sampled_from([1, 2, 3, 4, 12]))))
                  for i in range(count)]
        budget = Fraction(data.draw(st.integers(0, 600)), data.draw(st.sampled_from([1, 7, 12])))
        extra = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5000, 3), Fraction(10**300)]))
        dear = SourceOffer("dear", data.draw(alphas), budget + extra)
        assert exact_plan(offers + [dear], budget) == exact_plan(offers, budget)

    @pytest.mark.parametrize("offers, budget, counts", [
        # equal densities 0.2, s1 the denser by the cheaper cost; the DP over
        # every spend returns {s0: 3, s1: 7}, printed as 4.199999999999999
        ([SourceOffer("s0", 0.7, Fraction(7, 2)), SourceOffer("s1", 0.3, Fraction(3, 2))], 21,
         {"s1": 14}),
        # 3 * 0.6 and 2 * 0.3 + 2 * 0.6 are both 1.8; the DP over every spend,
        # or a tie decided by rounding, returns {s0: 2, s1: 2}
        ([SourceOffer("s0", 0.3, 3), SourceOffer("s1", 0.6, 4)], Fraction(29, 2), {"s1": 3}),
        # 6 * 0.1 and 3 * 0.1 + 0.3 tie; D, the densest, is dearer than the
        # budget, so the tie goes to A, the densest offer the budget can buy
        ([SourceOffer("A", 0.1, 1), SourceOffer("B", 0.3, 3), SourceOffer("D", 1.0, Fraction(19, 3))], 6,
         {"A": 6}),
    ], ids=["equal-densities", "equal-objectives", "densest-offer-past-the-budget"])
    def test_exact_tie_goes_to_the_densest_offer(self, offers, budget, counts):
        assert exact_plan(offers, budget).counts == counts

    def test_tiny_budget_multiplies_no_scaled_costs(self):
        # 1/10**400000 is 0 in the costs' own unit, 1/12, so the plan takes far
        # less than one product of two costs scaled to the budget's 400,000-digit
        # denominator, which a unit that divided the budget would need
        offers = [SourceOffer("A", 0.5, Fraction(1, 12)), SourceOffer("B", 0.7, Fraction(5, 12))]
        budget = Fraction(1, 10**400000)
        scale = math.lcm(12, budget.denominator)
        costs = [int(o.unit_cost * scale) for o in offers]
        start = time.perf_counter()
        costs[0] * costs[1]
        product_s = time.perf_counter() - start
        start = time.perf_counter()
        plan = exact_plan(offers, budget)
        plan_s = time.perf_counter() - start
        assert plan.counts == {} and plan.spend == 0
        assert plan_s < product_s / 4, (plan_s, product_s)

    def test_worthless_offers_buy_nothing(self):
        plan = exact_plan([SourceOffer("A", 0.0, 3), SourceOffer("B", 0.0, 2)], 50)
        assert plan.counts == {} and plan.objective == 0.0 and plan.spend == 0

    @pytest.mark.parametrize("plan", [greedy_plan, exact_plan])
    @pytest.mark.parametrize("budget", [CAPACITY_GUARD + 1, 10**300, 10**400],
                             ids=["guard+1", "10**300", "10**400"])
    def test_budget_past_the_guard(self, plan, budget):
        with pytest.raises(errors.CapacityGuardExceeded):
            plan([SourceOffer("A", 0.5, 1)], budget)

    @pytest.mark.parametrize("plan", [greedy_plan, exact_plan])
    @pytest.mark.parametrize("budget, error, shown", [
        (10**5000, errors.CapacityGuardExceeded, "scaled capacity ~1e5000 exceeds"),
        (-10**5000, errors.InvalidParameter, "got -~1e5000"),
        (Fraction(-1, 10**5000), errors.InvalidParameter, "got -~1e-5000"),
        (Fraction(-7, 2), errors.InvalidParameter, "got -7/2"),
        (Fraction(2 * CAPACITY_GUARD + 1, 2), errors.CapacityGuardExceeded, "scaled capacity 20000001/2 exceeds"),
    ], ids=["10**5000", "-10**5000", "-1/10**5000", "-7/2", "guard+1/2"])
    def test_messages_show_huge_numbers_by_magnitude(self, plan, budget, error, shown):
        with pytest.raises(error, match=shown) as info:
            plan([SourceOffer("A", 0.5, 1)], budget)
        assert len(str(info.value)) < 100

    def test_budget_at_the_guard(self):
        plan = exact_plan([SourceOffer("A", 0.5, 3), SourceOffer("B", 0.7, 5)], CAPACITY_GUARD)
        assert plan.counts == {"A": CAPACITY_GUARD // 3}
        assert plan.spend == CAPACITY_GUARD - 1


def widths(offers):
    """W - 1, W, W + 1 and 5 W for W the exact plan's DP width uncut by the capacity."""
    _, costs, _, scale = planner._scaled(offers, 0)
    width = dp_width(costs, math.inf)
    return scale, sorted({max(width - 1, 0), width, width + 1, 5 * width})


def block_offers(c_min, count, alphas):
    """``count`` offers of ``alphas`` ("random", "alpha-0", "equal-densities"
    or "equal-objectives"), the first at cost c_min, the others dearer."""
    rng = np.random.default_rng(c_min * 100 + count)
    costs = [c_min] + [int(c) for c in rng.integers(c_min + 1, 3 * c_min + 2, count - 1)]
    values = {"random": lambda: rng.uniform(0.05, 1.0, count),
              "alpha-0": lambda: np.where(rng.integers(2, size=count), rng.uniform(0.05, 1.0, count), 0.0),
              "equal-densities": lambda: np.array(costs) / max(costs),
              "equal-objectives": lambda: rng.choice([0.2, 0.3, 0.6], count)}[alphas]()
    return [SourceOffer(f"s{i}", float(a), c) for i, (c, a) in enumerate(zip(costs, values))]


class TestBlockPath:
    """The DP takes one max-plus scan per offer, whatever the width or the
    cheapest cost.  Its plan is the plan of the DP over every spend, or on a
    tie one worth as much with more units of the densest offer."""

    @staticmethod
    def check(offers, budget):
        plan = exact_plan(offers, budget)
        oracle = full_capacity_plan(offers, budget)
        if plan.to_json() != oracle.to_json():
            dense = _density_order(offers)[0].name
            assert plan.objective >= oracle.objective * (1.0 - PLAN_TIE_RTOL), (plan, oracle)
            assert plan.counts.get(dense, 0) > oracle.counts.get(dense, 0), (plan, oracle)
        return plan, oracle

    @pytest.mark.parametrize("alphas", ["random", "alpha-0", "equal-densities", "equal-objectives"])
    @pytest.mark.parametrize("c_min, count", [(15, 3), (23, 2), (47, 1), (16, 3), (8, 6), (25, 2), (10, 5)],
                             ids=["45", "46", "47", "48", "48-six", "50", "50-five"])
    def test_matches_full_capacity_dp_about_the_crossover(self, c_min, count, alphas):
        offers = block_offers(c_min, count, alphas)
        scale, capacities = widths(offers)
        for capacity in capacities:
            plan, oracle = self.check(offers, Fraction(capacity, scale))
            if alphas in ("random", "alpha-0"):  # no two plans tie
                assert plan.to_json() == oracle.to_json(), capacity

    def test_costs_in_twelfths_and_a_cost_past_the_width(self):
        # scaled costs 25, 30 and 37; a cost of 10**300 never fits, nor sizes
        # the DP's buffer
        offers = [SourceOffer("A", 0.61, Fraction(25, 12)), SourceOffer("B", 0.7, Fraction(5, 2)),
                  SourceOffer("C", 0.93, Fraction(37, 12))]
        _, capacities = widths(offers)
        for capacity in capacities:
            budget = Fraction(capacity, 12)
            plan, oracle = self.check(offers, budget)
            assert plan.to_json() == oracle.to_json()
            assert exact_plan(offers + [SourceOffer("D", 1.0, 10**300)], budget) == plan

    def test_dp_narrower_than_one_block(self):
        # c_b = 1 gives W = 0, where no offer takes a pass; costs 20, 25, 30
        # at capacities below 20 fit no offer, so nothing is bought
        cases = [([SourceOffer("A", 1.0, 1), SourceOffer("B", 0.5, 40)], (0, 1, 39, 100)),
                 ([SourceOffer("A", 0.9, 20), SourceOffer("B", 0.5, 25), SourceOffer("C", 0.6, 30)], (0, 5, 19))]
        for offers, capacities in cases:
            for capacity in capacities:
                self.check(offers, capacity)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_instances_match_full_capacity_dp(self, data):
        # a cheapest cost c_min of 32 / count to 12 more, the other costs up to 2 c_min + 1
        count = data.draw(st.integers(1, 5))
        c_min = data.draw(st.integers(-(-32 // count), -(-32 // count) + 12))
        costs = [c_min] + data.draw(st.lists(st.integers(c_min, 2 * c_min + 1), min_size=count - 1,
                                             max_size=count - 1))
        alphas = data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.3, 0.6, 1.0]) | st.floats(0.0, 1.0),
                                    min_size=count, max_size=count))
        offers = [SourceOffer(f"s{i}", a, c) for i, (c, a) in enumerate(zip(costs, alphas))]
        scale, capacities = widths(offers)
        self.check(offers, Fraction(data.draw(st.sampled_from(capacities)), scale))

    def test_block_memory_stops_growing_at_the_width(self):
        # costs 16 (the densest, twice, so no density gap narrows the DP), 97 and
        # 101: W = 15 * 101 = 1,515
        offers = [SourceOffer("A", 0.9, 16), SourceOffer("A2", 0.9, 16), SourceOffer("B", 0.5, 97),
                  SourceOffer("C", 0.6, 101)]
        width = (16 - 1) * 101
        assert dp_widths(offers, CAPACITY_GUARD) == [width]

        def peak(budget):
            tracemalloc.start()
            try:
                exact_plan(offers, budget)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at_width = peak(width)
        assert peak(CAPACITY_GUARD) <= 2 * at_width, (peak(CAPACITY_GUARD), at_width)

    def test_fill_runs_the_same_lines_whatever_the_width_or_cheapest_cost(self):
        # one pass of a fixed number of numpy calls per offer: the lines _best
        # runs count neither the cells nor the rows of a pass
        def lines(costs, width):
            count = 0

            def local(frame, event, arg):
                nonlocal count
                count += event == "line"
                return local

            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is planner._best.__code__ else None)
            try:
                planner._best(costs, [0.9, 0.5, 0.6], width)
            finally:
                sys.settrace(previous)
            return count

        counts = {(c_min, width): lines([c_min, 101, 103], width) for c_min in (1, 97) for width in (1_000, 100_000)}
        assert len(set(counts.values())) == 1, counts

    def test_more_offers_than_an_8_bit_pick_holds(self):
        # 129 offers of cost 2, then t, the least dense, which a budget of 3
        # buys: its pick, 129, needs 16 bits
        offers = [SourceOffer(f"s{i:03}", 0.5 - i * 1e-4, 2) for i in range(129)] + [SourceOffer("t", 0.7, 3)]
        assert _density_order(offers)[-1].name == "t"
        for budget in range(40):
            assert exact_plan(offers, budget).to_json() == full_capacity_plan(offers, budget).to_json(), budget
        assert exact_plan(offers, 3).counts == {"t": 1}


def gap_offers(rng):
    """1 to 6 offers at costs n / d (n <= 60, d in 1, 2, 3, 4, 12), some of
    alpha 0, and by ``kind`` one more: a duplicate, a proportional offer (k
    times the alpha and the cost, or 1 / k of both), or a runner-up within
    1e-12 relative of the densest offer's density, either side of it."""
    pairs = [[float(rng.choice([0.0, 0.2, 0.3, 0.6, 1.0])) if rng.random() < 0.3 else float(rng.uniform(0, 1)),
              Fraction(int(rng.integers(1, 61)), int(rng.choice([1, 2, 3, 4, 12])))]
             for _ in range(int(rng.integers(1, 7)))]
    kind = ["random", "duplicate", "proportional", "near-tie"][int(rng.integers(4))]
    alpha, cost = pairs[int(rng.integers(len(pairs)))]
    if kind == "duplicate":
        pairs.append([alpha, cost])
    elif kind == "proportional":
        k = int(rng.choice([2, 3]))
        pairs.append([alpha * k, cost * k] if alpha * k <= 1.0 else [alpha / k, cost / k])
    elif kind == "near-tie":
        alpha, cost = max(pairs, key=lambda p: Fraction(p[0]) / p[1])
        other = Fraction(int(rng.integers(1, 61)), int(rng.choice([1, 2, 3, 4, 12])))
        pairs.append([min(1.0, alpha * float(other / cost) * (1.0 + float(rng.uniform(-1e-12, 1e-12)))), other])
    rng.shuffle(pairs)
    return [SourceOffer(f"s{i}", a, c) for i, (a, c) in enumerate(pairs)], kind


class TestDensityGap:
    """The DP also stops at floor(L / (d_b - d_2)) for d_2 the largest density
    of the other buyable offers, and at 0 when b is the only one.  Its plan,
    and every cell it keeps, are those of the DP over the Gilmore-Gomory
    width."""

    def test_plans_and_cells_match_the_gilmore_gomory_dp(self, monkeypatch):
        seen = []

        def counted(costs, alphas, width):
            seen.append(best(costs, alphas, width))
            return seen[-1]

        best = planner._best
        monkeypatch.setattr(planner, "_best", counted)
        rng = np.random.default_rng(449)
        kinds, narrowed = set(), 0
        for _ in range(10_000):
            offers, kind = gap_offers(rng)
            kinds.add(kind)
            _, costs, _, scale = planner._scaled(offers, 0)
            if rng.random() < 0.6:  # about the Gilmore-Gomory width
                capacity = int(rng.integers(0, 3 * dp_width(costs, math.inf) + 2))
            else:
                capacity = int(10 ** rng.uniform(0, 6))
            budget = Fraction(capacity, scale)
            oracle, cells, width = gilmore_gomory_plan(offers, budget)
            plan = exact_plan(offers, budget)
            assert json.dumps(plan.to_json()) == json.dumps(oracle.to_json()), (offers, budget)
            kept = seen[-1][0]
            assert len(kept) <= width + 1
            assert np.array_equal(kept.view(np.int64), cells[:len(kept)].view(np.int64)), (offers, budget)
            narrowed += len(kept) <= width
        assert kinds == {"random", "duplicate", "proportional", "near-tie"}
        assert narrowed > 5_000, narrowed

    @pytest.mark.parametrize("offers, budget, width", [
        # d_b = 1/100, d_2 = 0.5/101: floor((0.99 + 2e-12 * 10**4) / (1/100 - 0.5/101)) = 196,
        # not 99 * 101 = 9,999
        ([SourceOffer("b", 1.0, 100), SourceOffer("r", 0.5, 101)], 10**6, 196),
        # the same with 13 (the densest), 97 and 101: 13, not 12 * 101 = 1,212
        ([SourceOffer("A", 0.9, 13), SourceOffer("B", 0.5, 97), SourceOffer("C", 0.6, 101)], 10**6, 13),
        # b alone, or with an offer past the budget: no DP, not 2 * 3 = 6
        ([SourceOffer("A", 0.5, 3)], 10**6, 0),
        ([SourceOffer("A", 0.5, 3), SourceOffer("D", 1.0, 10**7)], 10**6, 0),
        # an equally dense runner-up (1/256): the Gilmore-Gomory width, 63 * 128
        ([SourceOffer("b", 0.25, 64), SourceOffer("r", 0.5, 128)], 10**6, 8064),
        # a runner-up 1e-12 below: floor(L / gap) is about 10**14, past 99 * 101
        ([SourceOffer("b", 0.5, 100), SourceOffer("r", 0.505 * (1 - 1e-12), 101)], 10**6, 9999),
        # and a budget below the Gilmore-Gomory width cuts it
        ([SourceOffer("b", 0.25, 64), SourceOffer("r", 0.5, 128)], 1000, 1000),
        # a dear runner-up 2e-6 below: d_b * (c_b - 1) / gap gives 500,000 cells and
        # 2 * PLAN_TIE_RTOL * alpha_b * floor(capacity / c_b) / gap 10 more, under 1 * 10**6
        ([SourceOffer("b", 2e-6, 2), SourceOffer("r", 1 - 2e-6, 10**6)], 10**7, 500_010),
    ], ids=["gap", "gap-three-offers", "lone-offer", "lone-buyable-offer", "equally-dense", "1e-12-below",
            "capacity", "tie-term"])
    def test_width_by_counting(self, offers, budget, width):
        assert dp_widths(offers, budget) == [width]
        assert exact_plan(offers, budget) == gilmore_gomory_plan(offers, budget)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_width_matches_the_fraction_width(self, data):
        alphas = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
        costs = st.builds(Fraction, st.integers(1, 10**7), st.sampled_from([1, 2, 3, 12]))
        pairs = data.draw(st.lists(st.tuples(alphas, costs), min_size=1, max_size=6))
        alpha, cost = max(pairs, key=lambda p: Fraction(p[0]) / p[1])
        kind = data.draw(st.sampled_from(["random", "equal-density", "1e-12-below"]))
        if kind == "equal-density":  # gap 0
            pairs.append((alpha * 2, cost * 2) if alpha * 2 <= 1.0 else (alpha, cost))
        elif kind == "1e-12-below":
            other = data.draw(costs)
            pairs.append((min(1.0, alpha * float(other / cost) * (1.0 - 1e-12)), other))
        offers = [SourceOffer(f"s{i}", a, c) for i, (a, c) in enumerate(pairs)]
        scale = math.lcm(*(c.denominator for _, c in pairs))
        budget = Fraction(data.draw(st.integers(0, CAPACITY_GUARD)), scale)
        assert dp_widths(offers, budget, dp=False) == [fraction_width(offers, budget)]


class TestRankings:
    def test_upper_equal_costs_sorts_by_sup(self):
        offers = [SourceOffer("A", 0.5, 1, corrected_sup=2.0),
                  SourceOffer("B", 0.5, 1, corrected_sup=1.0),
                  SourceOffer("C", 0.5, 1, corrected_sup=1.5)]
        assert rank_sources_upper(offers) == ["B", "C", "A"]

    def test_upper_weighs_cost(self):
        offers = [SourceOffer("A", 0.5, 1, corrected_sup=2.0),
                  SourceOffer("B", 0.5, 3, corrected_sup=1.0)]
        assert rank_sources_upper(offers) == ["B", "A"]  # 3 < 4

    def test_upper_ties_stable_by_name(self):
        offers = [SourceOffer("B", 0.5, 2, corrected_sup=1.0),
                  SourceOffer("A", 0.5, 2, corrected_sup=1.0)]
        assert rank_sources_upper(offers) == ["A", "B"]

    def test_upper_requires_stat(self):
        with pytest.raises(errors.MissingStatistic):
            rank_sources_upper([SourceOffer("A", 0.5, 1)])

    def test_lower_prefers_clean_cheap(self):
        offers = [SourceOffer("noisy", 0.5, 1), SourceOffer("clean", 1.0, 1)]
        assert rank_sources_lower(offers) == ["clean", "noisy"]

    def test_lower_density_example(self):
        offers = [SourceOffer("A", 0.9, 3), SourceOffer("B", 0.5, 1)]
        assert rank_sources_lower(offers) == ["B", "A"]  # 0.5 > 0.3

    def test_lower_ties_by_cost_then_name(self):
        offers = [SourceOffer("B", 0.6, 2), SourceOffer("A", 0.3, 1)]
        assert rank_sources_lower(offers) == ["A", "B"]  # equal density, cheaper first

    def test_offers_sharing_a_name_are_refused(self):
        # a ranking names each offer once, so it refuses what the plans refuse, with their words
        offers = [SourceOffer("A", 0.5, 1, corrected_sup=1.0), SourceOffer("B", 0.6, 2, corrected_sup=1.0),
                  SourceOffer("A", 0.9, 2, corrected_sup=2.0)]
        for call in (rank_sources_lower, rank_sources_upper, lambda o: greedy_plan(o, 1), lambda o: exact_plan(o, 1)):
            for read in (offers, Offers(offers)):
                with pytest.raises(errors.InvalidParameter, match="^offer name 'A' appears more than once$"):
                    call(read)


class TestOneRead:
    """A list of offers is typed, checked, ordered and scaled once: by
    ``offers_from_json`` or ``Offers``, else once per call."""

    OFFERS = [{"name": "A", "alpha": 0.5, "cost": {"num": 1, "den": 3}, "corrected_sup": 1.5},
              {"name": "B", "alpha": 0.9, "cost": 2, "corrected_sup": 1.2}]

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []

        def counted(offers):
            calls.append(len(offers))
            return order(offers)

        order = planner._density_order
        monkeypatch.setattr(planner, "_density_order", counted)
        return calls

    def test_one_plan_sorts_its_offers_once(self, sorts, tmp_path, capsys):
        path = tmp_path / "offers.json"
        path.write_text(json.dumps(self.OFFERS))
        assert cli.main(["plan", "--offers", str(path), "--budget", "7/2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ranking_lower"] == ["A", "B"] and report["ranking_upper"] == ["A", "B"]
        assert sorts == [2]

    def test_a_list_is_read_per_call(self, sorts):
        offers = list(offers_from_json(self.OFFERS))
        for call in (greedy_plan, exact_plan):
            assert call(offers, 4) == call(Offers(offers), 4)
        assert sorts == [2] * 4
        read = Offers(offers)
        assert Offers(read) is read and read == tuple(offers)
        greedy_plan(read, 4), exact_plan(read, 4), rank_sources_lower(read), rank_sources_upper(read)
        assert sorts == [2] * 5

    def test_the_budget_is_typed_before_the_names_are_checked(self):
        offers = Offers([SourceOffer("A", 0.5, 1), SourceOffer("A", 0.9, 2)])
        for plan in (greedy_plan, exact_plan):
            with pytest.raises(errors.InvalidParameter, match="^budget must be >= 0, got -1$"):
                plan(offers, -1)
            with pytest.raises(errors.InvalidParameter, match="^offer name 'A' appears more than once$"):
                plan(offers, 1)

    def test_offers_are_typed_as_before(self):
        for value in ([], "AB", [SourceOffer("A", 0.5, 1), 3]):
            with pytest.raises(errors.InvalidParameter, match="^offers must be "):
                Offers(value)
            with pytest.raises(errors.InvalidParameter, match="^offers must be "):
                exact_plan(value, 1)


class TestValidationAndJson:
    def test_rejects_bad_alpha(self):
        with pytest.raises(errors.InvalidParameter):
            SourceOffer("A", 1.5, 1)

    def test_rejects_non_positive_cost(self):
        with pytest.raises(errors.InvalidParameter):
            SourceOffer("A", 0.5, 0)

    def test_offers_round_trip(self):
        offers = offers_from_json([
            {"name": "A", "alpha": 0.9, "cost": {"num": 3, "den": 1}, "corrected_sup": 1.2},
            {"name": "B", "alpha": 0.5, "cost": {"num": 1, "den": 2}},
        ])
        assert offers[0].unit_cost == 3 and offers[1].unit_cost == Fraction(1, 2)
        assert offers[1].corrected_sup is None

    @pytest.mark.parametrize("first, second", [(greedy_plan, exact_plan), (exact_plan, greedy_plan)],
                             ids=["greedy-first", "exact-first"])
    def test_repeated_names_are_refused(self, first, second):
        offers = [SourceOffer("A", 0.5, 1), SourceOffer("B", 0.6, 1), SourceOffer("A", 0.9, 2)]
        for plan in (first, second):
            with pytest.raises(errors.InvalidParameter, match="'A'"):
                plan(offers, 4)

    def test_offers_schema_errors(self):
        with pytest.raises(errors.ParseError):
            offers_from_json([{"name": "A", "alpha": 0.9}])
        with pytest.raises(errors.ParseError):
            offers_from_json([])

    def test_plan_json_shape(self):
        plan = exact_plan([SourceOffer("A", 0.7, 2)], 7)
        out = plan.to_json()
        assert out["counts"] == {"A": 3}
        assert out["spend"] == {"num": 6, "den": 1}
