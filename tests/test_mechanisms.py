import math
import random

import pytest

from procure.mechanisms import (
    PartitionDraw,
    UndefinedPriceError,
    UnknownMechanismError,
    draw_partition,
    make_threshold_posted,
    partition_mask,
    partition_profit_engine,
    resolve_mechanism,
    side_optima_by_mask,
    run_bid_independent,
    run_kth_price,
    run_pepa,
    run_pepac,
    threshold_masked_opp,
    threshold_zero,
)
import procure.mechanisms as mechanisms
from procure.model import Bid, Instance, RevenueCurve, capped_curve, linear_curve, make_instance
from procure.simulation import generate

from oracles import min_side_profit_oracle, pepa_expectation_oracle, per_unit_profit_engine

TIGHT = generate("tightness", {"l": 10, "eps": 1, "n": 4})


def all_partitions(n):
    for mask in range(1 << n):
        yield PartitionDraw(flips=tuple(bool((mask >> i) & 1) for i in range(n)))


def test_partition_draw_is_reproducible():
    inst = generate("uniform-random", {"n": 12, "seed": 3, "vmax": 0.9})
    a = draw_partition(inst, 42)
    b = draw_partition(inst, 42)
    assert a == b
    assert len(a.flips) == 12
    assert a.seed == 42
    assert draw_partition(inst, 43) != a


def test_partition_mask_rejects_negative_seed():
    with pytest.raises(ValueError):
        partition_mask(4, -1)


def test_same_seed_same_run():
    inst = generate("uniform-random", {"n": 8, "seed": 11, "vmax": 0.9})
    assert run_pepa(inst, seed=7) == run_pepa(inst, seed=7)


def test_run_requires_exactly_one_randomness_source():
    with pytest.raises(ValueError):
        run_pepa(TIGHT)
    with pytest.raises(ValueError):
        run_pepa(TIGHT, seed=1, partition=draw_partition(TIGHT, 1))


def test_pepa_rejects_capacitated_instances():
    inst = make_instance([1.0, 2.0], capacities=[2, 1], curve=linear_curve(10.0))
    with pytest.raises(ValueError):
        run_pepa(inst, seed=0)


def test_pepac_reduces_to_pepa_on_unit_capacities():
    for seed in range(30):
        inst = generate("uniform-random", {"n": 6, "seed": seed, "vmax": 0.9})
        assert run_pepa(inst, seed=seed) == run_pepac(inst, seed=seed)


def test_single_bid_never_profits():
    inst = make_instance([3.0], curve=linear_curve(10.0))
    for seed in range(8):
        run = run_pepa(inst, seed=seed)
        assert run.outcome.profit == 0.0


def test_tightness_per_draw_profit_is_zero_or_ten():
    for draw in all_partitions(4):
        run = run_pepa(TIGHT, partition=draw)
        assert run.outcome.profit in (0.0, 10.0)
        # side optima recorded on the run are recomputable via the oracle
        assert run.outcome.profit == min_side_profit_oracle(TIGHT, draw.flips)


def test_side_optima_fields_match_recomputation():
    from procure.benchmarks import optimal_single_price
    from procure.model import Instance

    inst = generate("uniform-random", {"n": 6, "seed": 5, "vmax": 0.9})
    run = run_pepa(inst, seed=9)
    side_a = tuple(b for i, b in enumerate(inst.bids) if run.partition.flips[i])
    side_b = tuple(b for i, b in enumerate(inst.bids) if not run.partition.flips[i])
    for side, recorded in ((side_a, run.f_prime), (side_b, run.f_double_prime)):
        expect = optimal_single_price(Instance(bids=side, curve=inst.curve)).profit if side else 0.0
        assert abs(recorded - expect) <= 1e-12


def test_profit_is_min_of_side_optima_on_every_draw():
    for seed in range(25):
        inst = generate("uniform-random", {"n": random.Random(seed).randint(1, 6), "seed": seed, "vmax": 1.0})
        for draw in all_partitions(inst.n):
            run = run_pepa(inst, partition=draw)
            want = min_side_profit_oracle(inst, draw.flips)
            assert abs(run.outcome.profit - want) <= 1e-9


def test_profit_min_rule_capacitated():
    for seed in range(15):
        inst = generate(
            "uniform-random",
            {"n": random.Random(seed).randint(2, 5), "seed": seed, "qmax": 3, "vmax": 1.0, "curve": "mixed"},
        )
        for draw in all_partitions(inst.n):
            run = run_pepac(inst, partition=draw)
            want = min_side_profit_oracle(inst, draw.flips, unit=False)
            assert abs(run.outcome.profit - want) <= 1e-9


def test_profit_min_rule_ten_bidders():
    inst = generate("uniform-random", {"n": 10, "seed": 77, "vmax": 0.9})
    for draw in all_partitions(10):
        run = run_pepa(inst, partition=draw)
        assert abs(run.outcome.profit - min_side_profit_oracle(inst, draw.flips)) <= 1e-9


def test_pepac_runs_on_capacitated_demo():
    demo = generate("kth-price-demo")
    for seed in range(20):
        run = run_pepac(demo, seed=seed)
        assert run.outcome.profit >= 0.0


def test_expectation_matches_oracle_enumeration():
    from procure.simulation import exhaustive_expected_profit

    assert exhaustive_expected_profit(TIGHT, "pepa") == 5.0
    inst = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))
    assert abs(exhaustive_expected_profit(inst, "pepa") - pepa_expectation_oracle(inst)) <= 1e-12


def test_fast_path_matches_full_runs():
    for seed in range(10):
        inst = generate(
            "uniform-random",
            {"n": 7, "seed": seed, "qmax": random.Random(seed).choice((1, 3)), "vmax": 1.0, "curve": "mixed"},
        )
        engine = partition_profit_engine(inst)
        side_optima = side_optima_by_mask(inst)
        for run_seed in range(40):
            full = run_pepac(inst, seed=run_seed)
            mask = partition_mask(inst.n, run_seed)
            assert engine(mask) == full.outcome.profit
            f_prime, f_double_prime = side_optima(mask)
            assert (f_prime.hex(), f_double_prime.hex()) == (full.f_prime.hex(), full.f_double_prime.hex())


def assert_engine_matches_oracle(inst, masks):
    engine = partition_profit_engine(inst)
    oracle = per_unit_profit_engine(inst)
    for mask in masks:
        got, want = engine(mask), oracle(mask)
        assert got.hex() == want.hex(), (mask, got, want)


def count_extractions(monkeypatch):
    calls = []
    original = mechanisms.run_extraction

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mechanisms, "run_extraction", counted)
    return calls


def rescaled(inst, s):
    """The same instance with money measured in a unit 1/s as large."""
    c = inst.curve
    curve = RevenueCurve(c.kind, c.r * s, c.cap, tuple((q, rev * s) for q, rev in c.points))
    return Instance(tuple(Bid(b.valuation * s, b.capacity, b.id) for b in inst.bids), curve)


def test_engine_matches_per_unit_oracle_on_every_mask():
    for seed in range(60):
        rng = random.Random(f"engine-{seed}")
        inst = generate(
            "uniform-random",
            {"n": rng.randint(1, 10), "seed": seed, "qmax": rng.choice((1, 4)), "curve": "mixed"},
        )
        assert_engine_matches_oracle(inst, range(1 << inst.n))


def test_engine_decides_ties_by_extraction(monkeypatch):
    calls = count_extractions(monkeypatch)
    # the two bids' sides differ by 5e-10, inside the band
    assert_engine_matches_oracle(make_instance([1 - 5e-10, 1.0], curve=linear_curve(10)), range(4))
    assert len(calls) == 2 * 2
    # sides that tie exactly but whose computed optima differ by rounding,
    # far more than m * EPS: only the band's rounding term keeps them in it
    del calls[:]
    inst = make_instance([51800000.0, 155400000.0], capacities=[1, 2], curve=linear_curve(258999999.99999997))
    assert_engine_matches_oracle(inst, range(4))
    assert len(calls) == 2 * 2
    # equal margins: sides holding as many units tie exactly
    del calls[:]
    for k in range(2, 9):
        for q in (1, 3):
            inst = make_instance([5.0] * k, capacities=[q] * k, curve=linear_curve(10.0))
            assert_engine_matches_oracle(inst, range(1 << k))
    assert len(calls) == 2 * 2 * sum(math.comb(k, k // 2) for k in range(2, 9, 2))


def test_engine_matches_oracle_when_money_is_rescaled():
    for s in (1e-6, 1e3, 1e9):
        for k in (2, 5, 6):
            inst = make_instance([0.5 * s] * k, capacities=[2] * k, curve=linear_curve(s))
            assert_engine_matches_oracle(inst, range(1 << k))
        tested = 0
        for seed in range(40):
            rng = random.Random(f"rescaled-{seed}")
            inst = generate(
                "uniform-random",
                {"n": rng.randint(2, 9), "seed": seed, "qmax": rng.choice((1, 4)), "curve": "mixed"},
            )
            try:
                inst = rescaled(inst, s)
            except ValueError:
                continue  # curve validation's absolute EPS rejects some rescaled pwl curves
            tested += 1
            assert_engine_matches_oracle(inst, range(1 << inst.n))
        assert tested >= 30, s


def test_engine_matches_oracle_on_sampled_masks_of_large_instances():
    for n in range(30, 51):
        inst = generate("uniform-random", {"n": n, "seed": n, "qmax": 6, "curve": "mixed"})
        rng = random.Random(n)
        assert_engine_matches_oracle(inst, [rng.getrandbits(n) for _ in range(2000)])


def test_winners_confined_to_chosen_side():
    for seed in range(40):
        inst = generate("uniform-random", {"n": 8, "seed": seed, "vmax": 0.9})
        run = run_pepa(inst, seed=seed)
        chosen_flag = run.chosen_side == "b_prime"
        for pos in range(inst.n):
            if run.outcome.allocation[pos] > 0:
                assert run.partition.flips[pos] == chosen_flag


def test_individual_rationality_every_run():
    for seed in range(60):
        inst = generate(
            "uniform-random",
            {"n": 6, "seed": seed, "qmax": random.Random(seed).choice((1, 4)), "vmax": 1.1, "curve": "mixed"},
        )
        out = run_pepac(inst, seed=seed).outcome
        for bid, x, p in zip(inst.bids, out.allocation, out.payment_per_unit):
            if x > 0:
                assert p >= bid.valuation - 1e-9
            else:
                assert p == 0.0


# --- bid-independent engine ---------------------------------------------------


def test_posted_price_buys_everything_cheap():
    inst = make_instance([1.0, 2.0, 3.0], curve=linear_curve(10.0))
    out = run_bid_independent(inst, make_threshold_posted(5.0))
    assert out.allocation == (1, 1, 1)
    assert out.payment_per_unit == (5.0, 5.0, 5.0)
    assert out.profit == 3 * (10.0 - 5.0)


def test_zero_threshold_buys_nothing():
    inst = make_instance([1.0, 2.0], curve=linear_curve(10.0))
    out = run_bid_independent(inst, threshold_zero)
    assert out.allocation == (0, 0)
    assert out.profit == 0.0


def test_zero_threshold_accepts_zero_asks():
    inst = make_instance([0.0, 2.0], curve=linear_curve(10.0))
    out = run_bid_independent(inst, threshold_zero)
    assert out.allocation == (1, 0)
    assert out.profit == 10.0


def test_masked_opp_threshold_is_ir_and_monotone():
    inst = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))
    out = run_bid_independent(inst, threshold_masked_opp)
    for bid, x, p in zip(inst.bids, out.allocation, out.payment_per_unit):
        if x > 0:
            assert p >= bid.valuation - 1e-9
    # allocation of each bidder is non-increasing in their own ask
    from procure.model import Bid, Instance

    for pos in range(inst.n):
        prev = None
        for v in [0.0, 2.0, 4.0, 6.0, 8.0, 9.5, 11.0, 20.0]:
            bids = list(inst.bids)
            bids[pos] = Bid(v, 1, bids[pos].id)
            out_v = run_bid_independent(Instance(bids=tuple(bids), curve=inst.curve), threshold_masked_opp)
            x = out_v.allocation[pos]
            if prev is not None:
                assert x <= prev
            prev = x


def test_capacitated_engine_partial_fill():
    inst = make_instance([1.0, 2.0], capacities=[2, 3], curve=capped_curve(6.0, 3))
    out = run_bid_independent(inst, make_threshold_posted(3.0))
    # three units are worth buying at threshold 3, marginal seller partial
    assert out.allocation == (2, 1)
    assert out.payment_per_unit == (3.0, 3.0)
    assert out.profit == 18.0 - 9.0


# --- kth price ------------------------------------------------------------------


DEMO = generate("kth-price-demo")


def test_kth_price_truthful_outcome():
    out = run_kth_price(DEMO, 200)
    assert out.allocation == (100, 100, 0, 0)
    assert out.payment_per_unit == (10.0, 10.0, 0.0, 0.0)
    utility_second = (10.0 - 8.0) * 100
    assert utility_second == 200.0
    assert out.profit == 15.0 * 200 - 10.0 * 200


def test_kth_price_rewards_capacity_underreport():
    from procure.model import Bid, Instance

    bids = list(DEMO.bids)
    bids[1] = Bid(8.0, 90, 1)
    out = run_kth_price(Instance(bids=tuple(bids), curve=DEMO.curve), 200)
    assert out.allocation == (100, 90, 10, 0)
    assert out.payment_per_unit[1] == 12.0
    assert (12.0 - 8.0) * 90 == 360.0


def test_kth_price_tie_breaks_by_id():
    inst = make_instance([5.0, 5.0], curve=linear_curve(10.0))
    out = run_kth_price(inst, 1)
    assert out.allocation == (1, 0)
    assert out.payment_per_unit == (5.0, 0.0)


def test_kth_price_undefined_when_everyone_wins():
    inst = make_instance([1.0, 2.0], capacities=[2, 2], curve=linear_curve(10.0))
    with pytest.raises(UndefinedPriceError):
        run_kth_price(inst, 4)
    with pytest.raises(UndefinedPriceError):
        run_kth_price(inst, 3)  # marginal seller partial, but nobody fully out


def test_kth_price_zero_cap_is_empty():
    out = run_kth_price(DEMO, 0)
    assert out.units() == 0
    assert out.profit == 0.0


# --- registry -------------------------------------------------------------------


def test_registry_resolution():
    assert resolve_mechanism("pepa").randomized
    assert resolve_mechanism("pepac").randomized
    assert not resolve_mechanism("kth-price", demand_cap=5).randomized
    assert not resolve_mechanism("bid-independent:zero").randomized
    assert not resolve_mechanism("bid-independent:posted=4.5").randomized
    assert not resolve_mechanism("bid-independent:opp").randomized


def test_registry_errors():
    with pytest.raises(UnknownMechanismError):
        resolve_mechanism("vickrey")
    with pytest.raises(UnknownMechanismError):
        resolve_mechanism("bid-independent:bogus")
    with pytest.raises(UnknownMechanismError):
        resolve_mechanism("bid-independent:posted=abc")
    for bad in ("inf", "-inf", "nan", "1e400", "-1"):
        with pytest.raises(UnknownMechanismError, match=f"posted={bad}.*{bad} is not a finite price"):
            resolve_mechanism(f"bid-independent:posted={bad}")
    with pytest.raises(ValueError):
        resolve_mechanism("kth-price")  # missing demand cap


def test_registry_run_uniform_interface():
    mech = resolve_mechanism("bid-independent:posted=5.0")
    run = mech.run(make_instance([1.0], curve=linear_curve(10.0)))
    assert run.partition is None
    assert run.outcome.profit == 5.0
    randomized = resolve_mechanism("pepa")
    run2 = randomized.run(TIGHT, 7)
    assert run2.partition is not None
