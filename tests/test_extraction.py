import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from procure.benchmarks import optimal_single_price
from procure import extraction
from procure.extraction import pe, pec, run_extraction
from procure.model import Bid, Instance, linear_curve, make_instance, pwl_curve
from procure.simulation import generate

import oracles
from oracles import per_unit_extraction


def _replace_bid(inst, pos, valuation=None, capacity=None):
    old = inst.bids[pos]
    bids = list(inst.bids)
    bids[pos] = Bid(
        old.valuation if valuation is None else valuation,
        old.capacity if capacity is None else capacity,
        old.id,
    )
    return Instance(bids=tuple(bids), curve=inst.curve)

FIXTURE = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))


def test_pe_extracts_target_exactly():
    res = pe(FIXTURE, 2.0)
    assert res.traded
    assert res.winners == ((0, 1), (1, 1))
    assert res.price_per_unit == 9.0
    assert res.profit == 2.0


def test_pe_fails_above_optimum():
    res = pe(FIXTURE, 12.0)  # single-price optimum is 9
    assert not res.traded
    assert res.profit == 0.0


def test_pe_zero_target_trades_widest_prefix():
    res = pe(FIXTURE, 0.0)
    # largest k with v_[k] <= R(k)/k: k=4 fails (10 > 9.5... no), check directly
    # R(k)/k = 10 for all k under linear(10), so all four qualify
    assert res.winners == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert res.price_per_unit == 10.0
    assert res.profit == 0.0


def test_pe_requires_unit_capacity():
    inst = make_instance([1.0, 2.0], capacities=[2, 1], curve=linear_curve(10.0))
    with pytest.raises(ValueError):
        pe(inst, 1.0)


def test_negative_target_rejected():
    with pytest.raises(ValueError):
        pe(FIXTURE, -1.0)


def test_pec_partial_marginal_seller():
    inst = make_instance([1.0, 9.0, 10.0], capacities=[2, 1, 3], curve=linear_curve(10.0))
    res = pec(inst, 2.0)
    assert res.winners == ((0, 2), (1, 1))
    assert abs(res.price_per_unit - 28.0 / 3.0) < 1e-12
    assert res.profit == 2.0


def test_pec_no_trade_when_curve_too_flat():
    inst = make_instance([5.0], capacities=[3], curve=linear_curve(4.0))
    assert not pec(inst, 10.0).traded


def test_pec_equals_pe_on_unit_instances():
    for seed in range(50):
        inst = generate("uniform-random", {"n": random.Random(seed).randint(1, 8), "seed": seed, "vmax": 0.9})
        f = optimal_single_price(inst).profit
        for target in (0.0, 0.3 * f, f):
            assert pe(inst, target) == pec(inst, target)


def test_largest_qualifying_count_matches_exhaustive_check():
    for seed in range(60):
        rng = random.Random(seed)
        inst = generate(
            "uniform-random",
            {"n": rng.randint(1, 6), "seed": seed, "qmax": 3, "vmax": 1.2, "curve": "mixed"},
        )
        target = rng.uniform(0.0, 1.2 * max(optimal_single_price(inst).profit, 0.1))
        res = per_unit_extraction(inst.sorted_bids, inst.revenue_table, target)
        assert run_extraction(inst.sorted_bids, inst.revenue_table, target, inst.revenue_maxima) == res
        # exhaustive qualification check over every unit count
        qualifying = []
        cum, j = 0, 0
        sorted_bids = inst.sorted_bids
        for u in range(1, inst.total_supply + 1):
            while u > cum + sorted_bids[j].capacity:
                cum += sorted_bids[j].capacity
                j += 1
            price = (inst.revenue_table[u] - target) / u
            if sorted_bids[j].valuation <= price + 1e-9:
                qualifying.append(u)
        if not qualifying:
            assert not res.traded
        else:
            assert sum(units for _, units in res.winners) == max(qualifying)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.0, max_value=1.5))
def test_profit_identity(seed, target_fraction):
    rng = random.Random(seed)
    inst = generate(
        "uniform-random",
        {"n": rng.randint(1, 8), "seed": seed, "qmax": rng.choice((1, 3)), "vmax": 0.9, "curve": "mixed"},
    )
    f = optimal_single_price(inst).profit
    target = target_fraction * f
    res = pec(inst, target)
    if target <= f:
        assert res.traded or target == 0.0
        assert abs(res.profit - target) <= 1e-9
    else:
        assert not res.traded
        assert res.profit == 0.0


def test_profit_identity_at_exact_boundary():
    for seed in range(40):
        inst = generate("uniform-random", {"n": 5, "seed": seed, "qmax": 2, "vmax": 0.9, "curve": "mixed"})
        f = optimal_single_price(inst).profit
        if f <= 0:
            continue
        res = pec(inst, f)
        assert res.traded
        assert abs(res.profit - f) <= 1e-9


def test_winner_price_is_bid_independent():
    checked = 0
    for seed in range(80):
        rng = random.Random(seed)
        inst = generate("uniform-random", {"n": rng.randint(2, 7), "seed": seed, "vmax": 0.9})
        f = optimal_single_price(inst).profit
        if f <= 0:
            continue
        target = 0.5 * f
        res = pe(inst, target)
        if not res.traded:
            continue
        price = res.price_per_unit
        for sid, _ in res.winners:
            pos = inst.position_of(sid)
            old = inst.bids[pos]
            raised = min(old.valuation + 0.5 * (price - old.valuation), price)
            if raised <= old.valuation:
                continue
            res2 = pe(_replace_bid(inst, pos, valuation=raised), target)
            if res2.units_for(sid) > 0:
                assert res2.price_per_unit == price
                checked += 1
    assert checked > 20


def test_capacity_underreport_never_pays_under_linear_curves():
    # with a linear curve the offered price only shrinks as the buy shrinks,
    # so underreporting capacity can never help a winner
    checked = 0
    for seed in range(120):
        rng = random.Random(seed)
        inst = generate(
            "uniform-random",
            {"n": rng.randint(2, 6), "seed": seed, "qmax": 4, "vmax": 0.9, "curve": "linear"},
        )
        f = optimal_single_price(inst).profit
        if f <= 0:
            continue
        target = rng.uniform(0.0, f)
        truth = pec(inst, target)
        for pos, bid in enumerate(inst.bids):
            true_util = truth.units_for(bid.id) * (truth.price_per_unit - bid.valuation)
            for q_hat in range(1, bid.capacity):
                dev = pec(_replace_bid(inst, pos, capacity=q_hat), target)
                dev_util = dev.units_for(bid.id) * (dev.price_per_unit - bid.valuation)
                assert dev_util <= true_util + 1e-9
                checked += 1
    assert checked > 100


def _boundary_targets(inst, rng):
    """Targets at which some unit count sits exactly on its qualification edge."""
    rt = inst.revenue_table
    targets = [0.0, rng.uniform(0.0, rt[-1])]
    cum = 0
    for b in inst.sorted_bids:
        u = rng.randint(cum + 1, cum + b.capacity)
        for t in (rt[u] - u * b.valuation, rt[u] - u * (b.valuation - 1e-9)):
            targets.extend(x for x in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)) if x >= 0.0)
        cum += b.capacity
    return targets


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
@example(5)  # with extraction._BOUND_SLACK = 0.0 both seeds prune away a qualifying count
@example(80)
def test_pruned_extraction_matches_the_full_scan(seed):
    rng = random.Random(seed)
    inst = generate(
        "uniform-random",
        {"n": rng.randint(1, 7), "seed": seed, "qmin": 1, "qmax": rng.choice((1, 40, 600)),
         "vmax": rng.choice((0.5, 1.0, 1.5)), "curve": rng.choice(("linear", "capped", "pwl", "mixed"))},
    )
    maxima = inst.revenue_maxima
    for target in _boundary_targets(inst, rng):
        want = per_unit_extraction(inst.sorted_bids, inst.revenue_table, target)
        got = run_extraction(inst.sorted_bids, inst.revenue_table, target, maxima)
        assert got == want
        assert got.price_per_unit.hex() == want.price_per_unit.hex()


def test_pruned_extraction_cost_does_not_follow_the_winning_count(monkeypatch):
    """A deep winning count costs the oracle's count-by-count scan thousands
    of unit checks and the pruned scan a few dozen."""
    inst = make_instance([1.0, 9.8, 9.9], capacities=[500, 2000, 2500], curve=linear_curve(10.0))
    checks = []
    real_leq = extraction.leq
    real_qualifies = oracles.unit_qualifies
    monkeypatch.setattr(extraction, "leq", lambda a, b: checks.append(1) or real_leq(a, b))
    monkeypatch.setattr(oracles, "unit_qualifies", lambda v, p: checks.append(1) or real_qualifies(v, p))
    target = 600.0  # only the cheapest seller's units can leave the buyer this much
    full = per_unit_extraction(inst.sorted_bids, inst.revenue_table, target)
    full_checks = len(checks)
    checks.clear()
    pruned = run_extraction(inst.sorted_bids, inst.revenue_table, target, inst.revenue_maxima)
    assert pruned == full and full.winners == ((0, 500),)
    assert full_checks == 4501
    assert len(checks) <= 64



@pytest.mark.parametrize("curve", [linear_curve(3.0), linear_curve(-0.0), pwl_curve([(7, 20.0), (30, 41.5), (45, 44.0)])])
def test_average_revenue_maxima_cover_their_aligned_ranges(curve):
    rt = curve.certified_table(45)
    levels = curve.certified_maxima(45).levels
    averages = [-math.inf] + [rt[u] / u for u in range(1, 46)]
    for k, level in enumerate(levels):
        for i, top in enumerate(level):
            span = averages[i << k:(i + 1) << k] or [-math.inf]
            assert top == max(span), (k, i)
    assert len(levels[-1]) == 1
