import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from procure.benchmarks import optimal_single_price
from procure import extraction
from procure.extraction import run_extraction
from procure.model import EPS, Bid, Instance, capped_curve, linear_curve, make_instance, pwl_curve
from procure.simulation import generate

import oracles
from oracles import per_unit_extraction, revenue_table
from test_benchmarks import _near_tie_blocks, count_revenue_reads


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
    res = run_extraction(FIXTURE.sorted_bids, FIXTURE.curve.pieces, 2.0)
    assert res.winners
    assert res.winners == ((0, 1), (1, 1))
    assert res.price_per_unit == 9.0
    assert res.profit == 2.0


def test_pe_fails_above_optimum():
    res = run_extraction(FIXTURE.sorted_bids, FIXTURE.curve.pieces, 12.0)  # single-price optimum is 9
    assert not res.winners
    assert res.profit == 0.0


def test_pe_zero_target_trades_widest_prefix():
    res = run_extraction(FIXTURE.sorted_bids, FIXTURE.curve.pieces, 0.0)
    # largest k with v_[k] <= R(k)/k: k=4 fails (10 > 9.5... no), check directly
    # R(k)/k = 10 for all k under linear(10), so all four qualify
    assert res.winners == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert res.price_per_unit == 10.0
    assert res.profit == 0.0


def test_negative_target_rejected():
    with pytest.raises(ValueError):
        run_extraction(FIXTURE.sorted_bids, FIXTURE.curve.pieces, -1.0)


@pytest.mark.parametrize("target", ["1.5", True])
def test_a_target_that_is_not_a_number_is_rejected_by_name(target):
    with pytest.raises(ValueError) as err:
        run_extraction(FIXTURE.sorted_bids, FIXTURE.curve.pieces, target)
    assert str(err.value) == f"target profit must be a number, got {target!r}"


def test_pec_partial_marginal_seller():
    inst = make_instance([1.0, 9.0, 10.0], capacities=[2, 1, 3], curve=linear_curve(10.0))
    res = run_extraction(inst.sorted_bids, inst.curve.pieces, 2.0)
    assert res.winners == ((0, 2), (1, 1))
    assert abs(res.price_per_unit - 28.0 / 3.0) < 1e-12
    assert res.profit == 2.0


def test_pec_no_trade_when_curve_too_flat():
    inst = make_instance([5.0], capacities=[3], curve=linear_curve(4.0))
    assert not run_extraction(inst.sorted_bids, inst.curve.pieces, 10.0).winners


def test_largest_qualifying_count_matches_exhaustive_check():
    for seed in range(60):
        rng = random.Random(seed)
        inst = generate(
            "uniform-random",
            {"n": rng.randint(1, 6), "seed": seed, "qmax": 3, "vmax": 1.2, "curve": "mixed"},
        )
        target = rng.uniform(0.0, 1.2 * max(optimal_single_price(inst).profit, 0.1))
        rtable = revenue_table(inst.curve, inst.total_supply)
        res = per_unit_extraction(inst.sorted_bids, rtable, target)
        assert run_extraction(inst.sorted_bids, inst.curve.pieces, target) == res
        # exhaustive qualification check over every unit count
        qualifying = []
        cum, j = 0, 0
        sorted_bids = inst.sorted_bids
        for u in range(1, inst.total_supply + 1):
            while u > cum + sorted_bids[j].capacity:
                cum += sorted_bids[j].capacity
                j += 1
            price = (rtable[u] - target) / u
            if sorted_bids[j].valuation <= price + 1e-9:
                qualifying.append(u)
        if not qualifying:
            assert not res.winners
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
    res = run_extraction(inst.sorted_bids, inst.curve.pieces, target)
    if target <= f:
        assert res.winners or target == 0.0
        assert abs(res.profit - target) <= 1e-9
    else:
        assert not res.winners
        assert res.profit == 0.0


def test_profit_identity_at_exact_boundary():
    for seed in range(40):
        inst = generate("uniform-random", {"n": 5, "seed": seed, "qmax": 2, "vmax": 0.9, "curve": "mixed"})
        f = optimal_single_price(inst).profit
        if f <= 0:
            continue
        res = run_extraction(inst.sorted_bids, inst.curve.pieces, f)
        assert res.winners
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
        res = run_extraction(inst.sorted_bids, inst.curve.pieces, target)
        if not res.winners:
            continue
        price = res.price_per_unit
        for sid, _ in res.winners:
            pos = sid
            old = inst.bids[pos]
            raised = min(old.valuation + 0.5 * (price - old.valuation), price)
            if raised <= old.valuation:
                continue
            raised_inst = _replace_bid(inst, pos, valuation=raised)
            res2 = run_extraction(raised_inst.sorted_bids, raised_inst.curve.pieces, target)
            if dict(res2.winners).get(sid, 0) > 0:
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
        truth = run_extraction(inst.sorted_bids, inst.curve.pieces, target)
        for pos, bid in enumerate(inst.bids):
            true_util = dict(truth.winners).get(bid.id, 0) * (truth.price_per_unit - bid.valuation)
            for q_hat in range(1, bid.capacity):
                dev_inst = _replace_bid(inst, pos, capacity=q_hat)
                dev = run_extraction(dev_inst.sorted_bids, dev_inst.curve.pieces, target)
                dev_util = dict(dev.winners).get(bid.id, 0) * (dev.price_per_unit - bid.valuation)
                assert dev_util <= true_util + 1e-9
                checked += 1
    assert checked > 100


def _boundary_targets(inst, rng):
    """Targets at which some unit count sits exactly on its qualification edge."""
    rt = revenue_table(inst.curve, inst.total_supply)
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
@example(5)  # regression seeds: a pruning bound without rounding slack lost their edge targets
@example(80)
def test_pruned_extraction_matches_the_full_scan(seed):
    rng = random.Random(seed)
    inst = generate(
        "uniform-random",
        {"n": rng.randint(1, 7), "seed": seed, "qmin": 1, "qmax": rng.choice((1, 40, 600)),
         "vmax": rng.choice((0.5, 1.0, 1.5)), "curve": rng.choice(("linear", "capped", "pwl", "mixed"))},
    )
    rtable = revenue_table(inst.curve, inst.total_supply)
    for target in _boundary_targets(inst, rng):
        want = per_unit_extraction(inst.sorted_bids, rtable, target)
        got = run_extraction(inst.sorted_bids, inst.curve.pieces, target)
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
    full = per_unit_extraction(inst.sorted_bids, revenue_table(inst.curve, inst.total_supply), target)
    full_checks = len(checks)
    checks.clear()
    pruned = run_extraction(inst.sorted_bids, inst.curve.pieces, target)
    assert pruned == full and full.winners == ((0, 500),)
    assert full_checks == 4501
    assert len(checks) <= 64


def test_an_ask_at_a_slope_costs_a_few_checks_when_the_target_is_off_the_edge(monkeypatch):
    """An ask equal to the curve's slope puts its part inside the band. The
    part is still left after three checks when both of its ends fail by a
    margin, instead of one check per unit; the cheaper block then wins
    with one more."""
    inst = make_instance([1.0, 10.0], capacities=[500, 100_000], curve=linear_curve(10.0))
    checks = []
    real_leq = extraction.leq
    monkeypatch.setattr(extraction, "leq", lambda a, b: checks.append(1) or real_leq(a, b))
    got = run_extraction(inst.sorted_bids, inst.curve.pieces, 600.0)
    assert got == per_unit_extraction(inst.sorted_bids, revenue_table(inst.curve, inst.total_supply), 600.0)
    assert got.winners == ((0, 500),)
    assert len(checks) <= 4


@st.composite
def _near_tie_extractions(draw):
    """(curve, sorted bids, target): a block of :func:`_near_tie_blocks`,
    whose ask v is near a piece's slope s or near s + EPS (where the check
    v - EPS <= (R(u) - P) / u is flat in u), sold after c units of a
    cheaper seller, and a target on the qualification edge of a count u of
    the block: R(u) - u (v - EPS), its float neighbours, or R(u) - u v."""
    curve, v, q, c = draw(_near_tie_blocks(offsets=(0.0, EPS)))
    bids = ((Bid(draw(st.sampled_from((0.0, v))), c, 0),) if c else ()) + (Bid(v, q, 1),)
    u = c + draw(st.integers(min_value=1, max_value=q))
    r = curve.at(u)
    edge = r - u * (v - EPS)
    target = draw(st.sampled_from((edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf), r - u * v)))
    return curve, bids, max(target, 0.0)


@settings(max_examples=200, deadline=None)
@given(_near_tie_extractions())
@example((pwl_curve([(1, 0.1)]), (Bid(0.10000000100000002, 4, 1),), 0.0))  # v = s + EPS: both fail with band 0
@example((linear_curve(0.6288679520425204), (Bid(0.6288679530425205, 52, 1),), 0.0))
@example(  # an in-band plateau falling by 2 EPS a unit: the walk may stop at a failing count only if lo fails too
    (capped_curve(25.837271135944597, 1888), (Bid(3.0000000000000004e-09, 2098, 1),), 48780.76790055614)
)
def test_extraction_matches_the_per_unit_scan_near_ties(case):
    """Outside its band a part of a block is checked at its ends and by
    bisection; inside it, count by count down to a count that fails by a
    margin, if lo does too. Either way the result is the count-by-count
    scan's, price bit for bit, on the oracle's table of the curve (rescaled
    pwl curves need not certify)."""
    curve, bids, target = case
    rtable = revenue_table(curve, sum(b.capacity for b in bids))
    got = run_extraction(bids, curve.pieces, target)
    want = per_unit_extraction(bids, rtable, target)
    assert got == want
    assert got.price_per_unit.hex() == want.price_per_unit.hex()


def test_extraction_reads_a_few_entries_per_part_crossed_plus_a_bisection(monkeypatch):
    """On the five-piece curve of the kernel's read-count test, a block of
    100,000 units costs at most two reads per part it crosses, one for the
    band and about log2(100,000) for the bisection on the winning part."""
    curve = pwl_curve([(20_000, 60_000.0), (40_000, 100_000.0), (60_000, 130_000.0), (80_000, 150_000.0)])
    c, q = 5_000, 100_000  # the block crosses all four breakpoints: five parts
    bids = (Bid(0.0, c, 0), Bid(1.7, q, 1))
    rtable = revenue_table(curve, c + q)
    reads = count_revenue_reads(monkeypatch, extraction)
    for target in (0.0, 20_000.0, 25_000.0, 30_000.0, 31_999.0, 40_000.0):
        reads.clear()
        got = run_extraction(bids, curve.pieces, target)
        assert got == per_unit_extraction(bids, rtable, target)
        assert len(reads) <= 1 + 2 * 5 + math.ceil(math.log2(q)) + 1, (target, len(reads))
