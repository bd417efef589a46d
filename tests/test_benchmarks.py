import pytest
from hypothesis import example, given, settings, strategies as st

from procure.benchmarks import (
    BenchmarkUndefinedError,
    exact_pepa_ratio,
    harmonic,
    optimal_multi_price,
    optimal_single_price,
    optimal_single_price_min2,
    scan_single_price,
)
from procure.model import capped_curve, linear_curve, make_instance, pwl_curve
from procure.simulation import generate

from oracles import (
    cap_f2_oracle,
    cap_f_oracle,
    cap_t_oracle,
    equal_margin_ratio_oracle,
    per_unit_single_price_scan,
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
    rtable = inst.revenue_table
    f = scan_single_price(pairs, rtable)
    assert _hexed(f) == _hexed(per_unit_single_price_scan(pairs, rtable))
    f2 = scan_single_price(pairs, rtable, min2=True)
    if len(pairs) < 2:
        assert f2 is None
    else:
        oracle = per_unit_single_price_scan(pairs, rtable, lo=pairs[0][1], include_empty=False)
        assert _hexed(f2) == _hexed(oracle)
