import math

import pytest
from hypothesis import example, given, settings, strategies as st

from procure.benchmarks import (
    BenchmarkUndefinedError,
    block_optimum,
    exact_pepa_ratio,
    harmonic,
    optimal_multi_price,
    optimal_single_price,
    optimal_single_price_min2,
    scan_single_price,
)
from procure import benchmarks, model
from procure.model import capped_curve, linear_curve, make_instance, pwl_curve
from procure.simulation import generate

from oracles import (
    cap_f2_oracle,
    cap_f_oracle,
    cap_t_oracle,
    equal_margin_ratio_oracle,
    per_unit_block_optimum,
    per_unit_single_price_scan,
    revenue_table,
    unit_f2_oracle,
    unit_f_oracle,
    unit_t_oracle,
)

FIXTURE = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))


def test_single_price_fixture():
    res = optimal_single_price(FIXTURE)
    assert res.profit == 9.0
    assert res.units == 1
    assert res.k_winners == 1
    assert res.price == 1.0


def test_single_price_two_cheap_bids():
    inst = make_instance([9.0, 10.0, 1000.0, 1000.0], curve=linear_curve(20.0))
    res = optimal_single_price(inst)
    assert res.profit == 20.0
    assert res.units == 2
    assert optimal_single_price_min2(inst).profit == 20.0


def test_single_price_no_trade():
    inst = make_instance([50.0], curve=linear_curve(10.0))
    res = optimal_single_price(inst)
    assert res.profit == 0.0
    assert res.units == 0
    assert res.k_winners == 0


def test_multi_price_fixture():
    res = optimal_multi_price(FIXTURE)
    assert res.profit == 10.0
    assert res.units == 2  # ties resolve to the smallest unit count
    assert res.profit >= optimal_single_price(FIXTURE).profit


def test_multi_price_two_units():
    inst = make_instance([1.0, 1.0], curve=linear_curve(10.0))
    assert optimal_multi_price(inst).profit == 18.0


def test_min2_fixture():
    res = optimal_single_price_min2(FIXTURE)
    assert res.profit == 2.0
    assert res.units == 2


def test_min2_capacitated_scans_above_cheapest_capacity():
    inst = make_instance([1.0, 9.0], capacities=[2, 1], curve=linear_curve(10.0))
    res = optimal_single_price_min2(inst)
    assert res.profit == 3.0  # only u=3 forces a second seller
    assert res.units == 3
    assert res.k_winners == 2


def test_min2_can_be_negative():
    inst = make_instance([50.0, 60.0], curve=linear_curve(10.0))
    assert optimal_single_price_min2(inst).profit == 20.0 - 120.0


def test_min2_undefined_for_single_bidder():
    with pytest.raises(BenchmarkUndefinedError):
        optimal_single_price_min2(make_instance([1.0], curve=linear_curve(10.0)))


def test_capacitated_single_price_partial_marginal():
    # cheapest fills fully, marginal seller partially, priced at the marginal ask
    inst = make_instance([2.0, 4.0], capacities=[2, 3], curve=capped_curve(5.0, 3))
    res = optimal_single_price(inst)
    # u=2 at price 2 gives 10-4=6; u=3 at price 4 gives 15-12=3
    assert res.profit == 6.0
    assert res.units == 2
    assert res.k_winners == 1


def test_exact_ratio_known_values():
    assert exact_pepa_ratio(2) == 0.25
    assert exact_pepa_ratio(3) == 0.25
    assert exact_pepa_ratio(4) == 0.3125
    with pytest.raises(ValueError):
        exact_pepa_ratio(1)


def test_exact_ratio_matches_partition_enumeration():
    for k in range(2, 13):
        assert abs(exact_pepa_ratio(k) - float(equal_margin_ratio_oracle(k))) < 1e-12


def test_exact_ratio_limit_and_monotonicity():
    values = [exact_pepa_ratio(k) for k in range(3, 65)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 0.5) < 0.06
    assert exact_pepa_ratio(400) > 0.47


def test_harmonic():
    assert harmonic(1) == 1.0
    assert abs(harmonic(4) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-12


# --- oracle equivalence and order relations -----------------------------------


def _random_unit_instance(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    kind = rng.choice(("linear", "capped", "pwl", "mixed"))
    return generate(
        "uniform-random",
        {"n": n, "seed": seed, "vmax": rng.choice((0.5, 1.0, 2.0)), "curve": kind},
    )


def _random_cap_instance(seed):
    import random

    rng = random.Random(seed ^ 0x5EED)
    n = rng.randint(2, 6)
    qmax = rng.randint(1, max(1, 16 // n))
    return generate(
        "uniform-random",
        {"n": n, "seed": seed, "qmax": qmax, "vmax": rng.choice((0.5, 1.0, 2.0)), "curve": "mixed"},
    )


def test_unit_benchmarks_match_subset_oracles():
    for seed in range(120):
        inst = _random_unit_instance(seed)
        assert abs(optimal_single_price(inst).profit - unit_f_oracle(inst)) <= 1e-12
        assert abs(optimal_multi_price(inst).profit - unit_t_oracle(inst)) <= 1e-12
        if inst.n >= 2:
            assert abs(optimal_single_price_min2(inst).profit - unit_f2_oracle(inst)) <= 1e-12


def test_capacitated_benchmarks_match_allocation_oracles():
    for seed in range(80):
        inst = _random_cap_instance(seed)
        assert abs(optimal_single_price(inst).profit - cap_f_oracle(inst)) <= 1e-12
        assert abs(optimal_multi_price(inst).profit - cap_t_oracle(inst)) <= 1e-12
        assert abs(optimal_single_price_min2(inst).profit - cap_f2_oracle(inst)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_order_relations(seed):
    inst = _random_cap_instance(seed)
    f = optimal_single_price(inst).profit
    t = optimal_multi_price(inst).profit
    f2 = optimal_single_price_min2(inst).profit
    assert t >= f - 1e-12
    assert f >= f2 - 1e-12  # the unconstrained scan covers a superset


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_multi_price_within_harmonic_factor_unit_case(seed):
    inst = _random_unit_instance(seed)
    f = optimal_single_price(inst).profit
    t = optimal_multi_price(inst).profit
    if f <= 0:
        return
    assert t <= f * harmonic(inst.n) + 1e-9


# --- the single-price kernel against the per-unit walk --------------------------

# Curves and valuations drawn from small sets, so that equal valuations,
# profits that tie across blocks (linear_curve(r) with v = r), counts that
# tie within a block (a capped curve's plateau at v = 0) and -0.0 profits
# (linear_curve(-0.0) at v = 0) come up often.
_TIE_CURVES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 3.0, -0.0]).map(linear_curve),
    st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.integers(min_value=1, max_value=12)).map(
        lambda rd: capped_curve(*rd)
    ),
    st.just(pwl_curve([(4, 12.0), (8, 20.0)])),
)
_TIE_SELLERS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(min_value=0.0, max_value=3.0)),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=7,
)


def _hexed(scan):
    if scan is None:
        return None
    profit, units, winners, price = scan
    return profit.hex(), units, winners, price.hex()


@settings(max_examples=400, deadline=None)
@given(_TIE_SELLERS, _TIE_CURVES)
@example([(1.0, 2), (1.0, 3), (1.0, 1)], linear_curve(1.0))
@example([(0.0, 3), (0.0, 2)], linear_curve(-0.0))
@example([(0.0, 1), (0.0, 4), (2.0, 2)], capped_curve(3.0, 2))
@example([(2.0, 3), (1.0, 2), (2.0, 2), (2.0, 1)], pwl_curve([(4, 12.0), (8, 20.0)]))
def test_scan_matches_per_unit_walk_bit_for_bit(sellers, curve):
    inst = make_instance([v for v, _ in sellers], capacities=[q for _, q in sellers], curve=curve)
    pairs = [(b.valuation, b.capacity) for b in inst.sorted_bids]
    rtable = revenue_table(curve, inst.total_supply)
    f = scan_single_price(pairs, curve.pieces)
    assert _hexed(f) == _hexed(per_unit_single_price_scan(pairs, rtable))
    f2 = scan_single_price(pairs, curve.pieces, min2=True)
    if len(pairs) < 2:
        assert f2 is None
    else:
        oracle = per_unit_single_price_scan(pairs, rtable, lo=pairs[0][1], include_empty=False)
        assert _hexed(f2) == _hexed(oracle)


@st.composite
def _near_tie_blocks(draw, offsets=(0.0,)):
    """(curve, v, q, c): a block of q units (up to about 20k) after c
    cheaper ones, crossing none, some or all of the curve's breakpoints,
    with the ask v at, one ulp from, or 1e-15..1e-11 (relative) from the
    slope of one of the curve's pieces plus one of ``offsets``, and money
    scaled by 1e-6..1e9."""
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=9))
    slope = st.floats(min_value=0.0, max_value=3.0)
    kind = draw(st.sampled_from(("linear", "capped", "pwl")))
    if kind == "linear":
        curve = linear_curve(scale * draw(slope))
    elif kind == "capped":
        curve = capped_curve(scale * draw(slope), draw(st.integers(min_value=1, max_value=12_000)))
    else:
        points, q_acc, rev = [], 0, 0.0
        for marginal in sorted(draw(st.lists(slope, min_size=1, max_size=4)), reverse=True):
            length = draw(st.integers(min_value=1, max_value=5_000))
            q_acc, rev = q_acc + length, rev + scale * marginal * length
            points.append((q_acc, rev))
        curve = pwl_curve(points)
    ends = [piece[0] for piece in curve.pieces[:-1]]
    c = max(0, draw(st.sampled_from([0, *ends])) + draw(st.integers(min_value=-2, max_value=2)))
    to_ends = [end - c for end in ends if end > c] or [1]
    q = draw(
        st.one_of(
            st.integers(min_value=1, max_value=20_000),
            st.tuples(st.sampled_from(to_ends), st.integers(min_value=-1, max_value=2)).map(lambda t: max(1, sum(t))),
        )
    )
    s = draw(st.sampled_from(curve.pieces))[1] + draw(st.sampled_from(offsets))
    how = draw(st.sampled_from(("at", "ulp", "relative")))
    if how == "at":
        v = s
    elif how == "ulp":
        v = math.nextafter(s, draw(st.sampled_from((math.inf, -math.inf))))
    else:
        v = s * (1.0 + draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(min_value=-15.0, max_value=-11.0)))
    return curve, max(v, 0.0), q, c


@settings(max_examples=200, deadline=None)
@given(_near_tie_blocks())
@example((linear_curve(0.1), 0.1, 20_000, 0))
@example((linear_curve(3.0), 3.0, 7, 5))
@example((capped_curve(3.0, 40), 0.0, 100, 10))
@example((capped_curve(3.0, 40), 5e-324, 100, 10))
@example((linear_curve(-0.0), 0.0, 50, 0))
@example((linear_curve(1.0), 0.9999999999999999, 4, 0))
@example((pwl_curve([(1, 1.3162763270174458)]), 1.316276327017446, 6, 0))
@example((pwl_curve([(10, 30.0), (20, 40.0)]), 2.0, 15, 12))
def test_block_optimum_matches_the_per_unit_walk_near_ties(case):
    """Outside its band the kernel reads one count per piece; inside it, it
    walks. Either way it returns the walk's first maximal float, on the
    oracle's table of the curve (rescaled pwl curves need not certify)."""
    curve, v, q, c = case
    rtable = revenue_table(curve, c + q)
    profit, u = block_optimum(curve.pieces, v, q, c)
    want_profit, want_u = per_unit_block_optimum(rtable, v, q, c)
    assert (profit.hex(), u) == (want_profit.hex(), want_u)


def count_revenue_reads(monkeypatch, module):
    """The counts at which ``module`` evaluates the revenue curve: a list
    that grows by one on each of its calls of ``piece_revenue``."""
    reads = []
    real = model.piece_revenue
    monkeypatch.setattr(module, "piece_revenue", lambda piece, u: reads.append(u) or real(piece, u))
    return reads


def test_block_optimum_reads_at_most_two_entries_per_piece_crossed(monkeypatch):
    curve = pwl_curve([(20_000, 60_000.0), (40_000, 100_000.0), (60_000, 130_000.0), (80_000, 150_000.0)])
    c, q = 5_000, 100_000  # crosses all four breakpoints: five pieces
    rtable = revenue_table(curve, c + q)
    reads = count_revenue_reads(monkeypatch, benchmarks)
    for v in (0.5, 1.7, 2.3, 4.0):  # off every slope (3, 2, 1.5, 1 and the extension's 1)
        reads.clear()
        profit, u = block_optimum(curve.pieces, v, q, c)
        assert (profit, u) == per_unit_block_optimum(rtable, v, q, c)
        assert len(reads) <= 2 * 5
