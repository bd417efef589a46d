import math
import random
from collections import Counter
from itertools import islice

import pytest

from procure.benchmarks import optimal_single_price
from procure.mechanisms import (
    UndefinedPriceError,
    UnknownMechanismError,
    make_threshold_posted,
    partition_masks,
    partition_profit_engine,
    resolve_mechanism,
    side_optima_by_mask,
    run_bid_independent,
    run_kth_price,
    run_pepa,
    run_pepac,
    split_auction,
    threshold_masked_opp,
    tie_band,
    threshold_zero,
)
import procure.mechanisms as mechanisms
from procure.model import EPS, Bid, Instance, RevenueCurve, capped_curve, linear_curve, make_instance
from procure.simulation import generate, trial_seed

from oracles import (
    min_side_profit_oracle,
    pepa_expectation_oracle,
    per_seed_partition_mask,
    per_unit_bid_independent,
    per_unit_kth_price,
    per_unit_profit_engine,
    per_unit_split_auction,
)

TIGHT = generate("tightness", {"l": 10, "eps": 1, "n": 4})


def all_partitions(n):
    """Every coin mask of n bidders, with its flips in bid order."""
    for mask in range(1 << n):
        yield mask, tuple(bool(mask >> i & 1) for i in range(n))


def run_on_mask(inst, mask):
    """The split auction's truthful run on the draw whose coins are ``mask``."""
    return split_auction(inst, mask)[0]()


def test_partition_draw_is_reproducible():
    inst = generate("uniform-random", {"n": 12, "seed": 3, "vmax": 0.9})
    a = run_pepac(inst, 42).partition
    b = run_pepac(inst, 42).partition
    assert a == b
    assert len(a.flips) == 12
    assert a.seed == 42
    assert run_pepac(inst, 43).partition != a


def test_coin_i_of_a_draw_belongs_to_seller_i():
    """A draw's coin for bidder i, the bid at position i, is bit i of the
    seed's mask, whatever the sellers' cheapest-first order."""
    seeds = [2**64, 2**64 + 12_345, 3 * 2**64 + 1, *(trial_seed(2**33 + 7, t) for t in range(5))]
    for n in (1, 7, 64, 65, 130):
        inst = generate("uniform-random", {"n": n, "seed": n, "qmax": 3, "vmax": 0.9})
        if n > 1:
            assert inst.sorted_bids != inst.bids
        for s in seeds:
            mask = per_seed_partition_mask(n, s)
            assert run_pepac(inst, s).partition.flips == tuple(bool(mask >> i & 1) for i in range(n)), (n, s)


def test_partition_mask_rejects_negative_seed():
    with pytest.raises(ValueError):
        next(partition_masks(4, (-1,)))
    with pytest.raises(ValueError):
        list(partition_masks(4, [3, -1]))


def test_mask_stream_matches_one_mask_per_seed():
    wide = [2**64, 2**64 + 1, 2**64 - 1, 3 * 2**64 + 5, 2**128 + 2**64 + 7, 2**200 - 1]
    counter = [trial_seed(2**33, t) for t in range(300)]
    for n in (1, 63, 64, 65, 130):
        for seeds in (wide, counter, [0, 1, 2**32]):
            assert list(partition_masks(n, seeds)) == [per_seed_partition_mask(n, s) for s in seeds], n
    # the coin bits themselves: SplitMix64's first outputs (seed 0 gives the
    # reference generator's 0xe220a8397b1dcdaf) and a folded 200-bit seed
    assert list(partition_masks(64, [0, 1, 2**64])) == [0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0xBFEF8030DDC2D772]
    assert list(partition_masks(130, [2**200 - 1])) == [0x9CD0A7FE4AD9142C4300DB347C138AF0]


_GAMMA = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("n", (1, 6, 63, 64, 65, 130))
def test_coin_stream_matches_the_per_seed_oracle(n):
    rng = random.Random(n)
    seed_lists = [
        [],
        # one seed short of a lane batch, one batch, one over, and two batches and one over
        list(range(11, 11 + 1023)),
        range(trial_seed(5, 0), trial_seed(5, 1024)),
        [rng.getrandbits(64) for _ in range(1025)],
        range(trial_seed(2**31 - 1, 0), trial_seed(2**31 - 1, 2049)),
        # states whose first step wraps past 2^64, and for n > 64 later steps
        range(2**64 - _GAMMA - 300, 2**64 - _GAMMA + 300),
        range(-2 * _GAMMA % 2**64 - 100, -2 * _GAMMA % 2**64 + 100),
        # ranges crossing 2^64, so folded seeds sit mid-batch
        range(2**64 - 300, 2**64 + 300),
        [rng.getrandbits(rng.choice((8, 64, 65, 200))) for _ in range(300)],
    ]
    for seeds in seed_lists:
        want = [per_seed_partition_mask(n, s) for s in seeds]
        assert list(partition_masks(n, seeds)) == want, (n, len(seeds))


def test_coin_stream_rejects_a_negative_seed_mid_batch():
    message = "seed must be a non-negative integer, got -3"
    with pytest.raises(ValueError, match=message):
        list(partition_masks(70, [*range(1500), -3, 7]))
    with pytest.raises(ValueError, match=message):
        next(partition_masks(6, (-3,)))


def test_same_seed_same_run():
    inst = generate("uniform-random", {"n": 8, "seed": 11, "vmax": 0.9})
    assert run_pepa(inst, seed=7) == run_pepa(inst, seed=7)


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
    for mask, flips in all_partitions(4):
        run = run_on_mask(TIGHT, mask)
        assert run.outcome.profit in (0.0, 10.0)
        # side optima recorded on the run are recomputable via the oracle
        assert run.outcome.profit == min_side_profit_oracle(TIGHT, flips)


def test_side_optima_fields_match_recomputation():
    from procure.benchmarks import optimal_single_price

    inst = generate("uniform-random", {"n": 6, "seed": 5, "vmax": 0.9})
    run = run_pepa(inst, seed=9)
    side_a = tuple(b for i, b in enumerate(inst.bids) if run.partition.flips[i])
    side_b = tuple(b for i, b in enumerate(inst.bids) if not run.partition.flips[i])
    for side, recorded in ((side_a, run.f_prime), (side_b, run.f_double_prime)):
        expect = 0.0
        if side:
            expect = optimal_single_price(make_instance([b.valuation for b in side], curve=inst.curve)).profit
        assert abs(recorded - expect) <= 1e-12


def test_profit_is_min_of_side_optima_on_every_draw():
    for seed in range(25):
        inst = generate("uniform-random", {"n": random.Random(seed).randint(1, 6), "seed": seed, "vmax": 1.0})
        for mask, flips in all_partitions(inst.n):
            run = run_on_mask(inst, mask)
            want = min_side_profit_oracle(inst, flips)
            assert abs(run.outcome.profit - want) <= 1e-9


def test_profit_min_rule_capacitated():
    for seed in range(15):
        inst = generate(
            "uniform-random",
            {"n": random.Random(seed).randint(2, 5), "seed": seed, "qmax": 3, "vmax": 1.0, "curve": "mixed"},
        )
        for mask, flips in all_partitions(inst.n):
            run = run_on_mask(inst, mask)
            want = min_side_profit_oracle(inst, flips, unit=False)
            assert abs(run.outcome.profit - want) <= 1e-9


def test_profit_min_rule_ten_bidders():
    inst = generate("uniform-random", {"n": 10, "seed": 77, "vmax": 0.9})
    for mask, flips in all_partitions(10):
        run = run_on_mask(inst, mask)
        assert abs(run.outcome.profit - min_side_profit_oracle(inst, flips)) <= 1e-9


def _deviation_probes(inst, rng):
    """(position, v', q') probes: no ask, every ask of the instance (equal
    asks are ordered by id), just past each, far above all, and random."""
    asks = sorted({b.valuation for b in inst.bids})
    for pos, bid in enumerate(inst.bids):
        for v in (0.0, -0.0, *asks, *(a + 1e-9 for a in asks), 2.0 * asks[-1] + 1.0, rng.uniform(0.0, 1.0)):
            for q in sorted({1, bid.capacity, rng.randint(1, bid.capacity + 2)}):
                yield pos, v, q


def test_deviation_outcomes_match_whole_runs():
    for seed in range(45):
        rng = random.Random(f"deviate-{seed}")
        inst = generate(
            "uniform-random",
            {
                "n": rng.randint(1, 6),
                "seed": seed,
                "qmax": rng.choice((1, 4)),
                "vmax": 1.0,
                "curve": ("linear", "capped", "pwl")[seed % 3],
            },
        )
        truth, outcome = split_auction(inst, per_seed_partition_mask(inst.n, seed), seed)
        assert truth() == run_pepac(inst, seed), seed
        for pos, v, q in _deviation_probes(inst, rng):
            assert outcome(pos, v, q) == run_pepac(inst.with_bid(pos, v, q), seed).outcome, (seed, pos, v, q)
        assert truth() == run_pepac(inst, seed), seed  # the memo the deviations shared leaves the truth as it was


def test_deviation_outcomes_keep_b_prime_on_a_tie():
    # four equal asks: a 2/2 draw gives both sides the optimum 1.4, both
    # extractions trade at it, and b' must be kept
    inst = make_instance([0.3, 0.3, 0.3, 0.3], curve=linear_curve(1.0))
    ties = 0
    for seed in range(16):
        truth, outcome = split_auction(inst, per_seed_partition_mask(inst.n, seed), seed)
        assert truth() == run_pepac(inst, seed)
        for pos, v, q in _deviation_probes(inst, random.Random(seed)):
            run = run_pepac(inst.with_bid(pos, v, q), seed)
            assert outcome(pos, v, q) == run.outcome
            if run.f_prime == run.f_double_prime > 0:
                ties += 1
                assert run.chosen_side == "b_prime"
    assert ties > 0


def _split_auction_cases():
    """Instances for the split-auction oracle: 1 to 6 sellers, capacities
    up to 8, all three curve kinds, money from 1e-6 to 1e9, and equal asks
    (every second instance asks one of two prices)."""
    yield make_instance([0.3, 0.3, 0.3, 0.3], curve=linear_curve(1.0))
    yield make_instance([0.3, 0.3, 0.3, 0.3], capacities=[2, 2, 2, 2], curve=linear_curve(1.0))
    for seed in range(24):
        rng = random.Random(f"split-oracle-{seed}")
        inst = generate(
            "uniform-random",
            {
                "n": rng.randint(1, 6),
                "seed": seed,
                "qmax": rng.choice((1, 3, 8)),
                "curve": ("linear", "capped", "pwl")[seed % 3],
            },
        )
        if seed % 2:
            inst = Instance(tuple(Bid(rng.choice((0.2, 0.5)), b.capacity, b.id) for b in inst.bids), inst.curve)
        yield rescaled(inst, (1e-6, 1.0, 1e3, 1e9)[seed // 3 % 4])


def _scaled_probes(inst, rng):
    """(position, v', q') probes in the instance's money unit: no ask, every
    ask and the next float above it, far above all, and random; the seller's
    capacity, one unit, and a random count up to two past its capacity."""
    asks = sorted({b.valuation for b in inst.bids})
    unit = asks[-1] or 1.0
    for pos, bid in enumerate(inst.bids):
        for v in (0.0, -0.0, *asks, *(math.nextafter(a, math.inf) for a in asks), 2.0 * unit, rng.uniform(0.0, unit)):
            for q in sorted({1, bid.capacity, rng.randint(1, bid.capacity + 2)}):
                yield pos, v, q


def test_split_auction_matches_the_per_unit_oracle_on_every_mask():
    outcomes = 0
    for inst in _split_auction_cases():
        rng = random.Random(inst.n)
        probes = list(_scaled_probes(inst, rng))
        for mask in range(1 << inst.n):
            truth, deviate = split_auction(inst, mask)
            run = truth()
            got = run.outcome.allocation, run.outcome.payment_per_unit, run.outcome.profit, run.chosen_side
            assert got == per_unit_split_auction(inst, mask), (inst, mask)
            for pos, v, q in probes:
                out = deviate(pos, v, q)
                want = per_unit_split_auction(inst.with_bid(pos, v, q), mask)
                assert (out.allocation, out.payment_per_unit, out.profit) == want[:3], (inst, mask, pos, v, q)
                outcomes += 1
    assert outcomes > 0


def test_a_settle_outside_the_tie_band_runs_one_extraction(monkeypatch):
    calls = count_extractions(monkeypatch)
    # the 2/2 draw of four asks 0.3 ties at f' = f'' = 2.8: both sides extract
    tie = make_instance([0.3] * 4, capacities=[2] * 4, curve=linear_curve(1.0))
    run = split_auction(tie, 0b0101)[0]()
    assert run.f_prime == run.f_double_prime == 2.8 and run.chosen_side == "b_prime"
    assert len(calls) == 2
    # outside the band only the side that can trade extracts, truthful or
    # deviating; a deviation's band is at most the one on the larger supply
    # at the larger of V and v'
    truths = deviations = 0
    for inst in islice(_split_auction_cases(), 8):
        probes = list(_scaled_probes(inst, random.Random(inst.n)))
        top = inst.sorted_bids[-1].valuation
        for mask in range(1 << inst.n):
            truth, deviate = split_auction(inst, mask)
            del calls[:]
            run = truth()
            if abs(run.f_prime - run.f_double_prime) > tie_band(inst.curve.pieces, inst.total_supply)(top):
                assert len(calls) == 1, (inst, mask)
                truths += 1
            for pos, v, q in probes:
                del calls[:]
                deviate(pos, v, q)
                ran = len(calls)
                dev = inst.with_bid(pos, v, q)
                widest = tie_band(inst.curve.pieces, max(inst.total_supply, dev.total_supply))(max(top, v))
                dev_run = split_auction(dev, mask)[0]()
                if abs(dev_run.f_prime - dev_run.f_double_prime) > widest:
                    assert ran <= 1, (inst, mask, pos, v, q)
                    deviations += 1
    assert truths > 100 and deviations > 10_000, (truths, deviations)


def test_deviation_outcomes_validate_each_deviating_instance():
    inst = generate("uniform-random", {"n": 4, "seed": 2, "qmin": 2, "qmax": 3, "curve": "capped"})
    outcome = split_auction(inst, per_seed_partition_mask(inst.n, 5), 5)[1]
    for pos, v, q in ((0, -1.0, 2), (1, math.nan, 2), (2, 0.5, 0), (3, math.inf, 1)):
        with pytest.raises(ValueError) as ours:
            outcome(pos, v, q)
        with pytest.raises(ValueError) as whole:
            run_pepac(inst.with_bid(pos, v, q), 5)
        assert str(ours.value) == str(whole.value)


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
    instances = [
        generate(
            "uniform-random",
            {"n": 7, "seed": seed, "qmax": random.Random(seed).choice((1, 3)), "vmax": 1.0, "curve": "mixed"},
        )
        for seed in range(10)
    ]
    # walks that end early at many depths: spread sizes, sellers priced at
    # or above the margin, and capped plateaus on which blocks tie at 0.0
    for seed in range(10, 30):
        rng = random.Random(seed)
        instances.append(
            generate(
                "uniform-random",
                {"n": rng.randint(2, 14), "seed": seed, "qmax": rng.choice((1, 3, 8)), "vmax": rng.choice((0.5, 1.5)),
                 "curve": "mixed"},
            )
        )
    instances += [
        generate("example1", {"r": 10.0, "eps": 1.0, "n": 6}),
        generate("tightness", {"l": 10.0, "eps": 1.0, "n": 6}),
        generate("lowball", {"r": 10.0, "L": 9.0}),
        generate("kth-price-demo"),
        make_instance([1.0, 3.0, 5.0, 5.0, 5.0], capacities=[2, 2, 1, 3, 2], curve=capped_curve(5.0, 4)),
    ]
    for inst in instances:
        engine = partition_profit_engine(inst)
        side_optima = side_optima_by_mask(inst)
        for run_seed in range(40):
            full = run_pepac(inst, seed=run_seed)
            mask = per_seed_partition_mask(inst.n, run_seed)
            assert engine(mask) == full.outcome.profit
            f_prime, f_double_prime = side_optima(mask)
            assert (f_prime.hex(), f_double_prime.hex()) == (full.f_prime.hex(), full.f_double_prime.hex())


def test_walk_stops_once_neither_side_can_grow(monkeypatch):
    # two cheap sellers dominate: every other seller asks at least the
    # curve's slope, so no later block earns more than 0.0
    for n in (10, 40, 160):
        inst = make_instance(
            [1.0, 2.0] + [10.0 + (i % 3) for i in range(n - 2)],
            capacities=[10, 10] + [1 + i % 4 for i in range(n - 2)],
            curve=linear_curve(10.0),
        )
        rng = random.Random(n)
        masks = [rng.getrandbits(n) & ~0b11 | rng.choice((0b01, 0b10)) for _ in range(50)]  # the cheap pair split
        runs = [run_on_mask(inst, mask) for mask in masks]
        side_optima = side_optima_by_mask(inst)
        calls = []
        original = mechanisms.block_optimum

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mechanisms, "block_optimum", counted)
        optima = [side_optima(mask) for mask in masks]
        monkeypatch.undo()
        assert len(calls) <= 2, (n, len(calls))
        for (fa, fb), run in zip(optima, runs):
            assert (fa.hex(), fb.hex()) == (run.f_prime.hex(), run.f_double_prime.hex())


def test_memoised_walk_matches_full_runs_over_any_number_of_draws():
    instances = [
        generate("uniform-random", {"n": 7, "seed": 4, "qmax": 3, "curve": "pwl"}),  # the head is every seller
        generate("uniform-random", {"n": 11, "seed": 5, "qmax": 4, "curve": "mixed"}),
        generate("uniform-random", {"n": 24, "seed": 6, "qmax": 6, "curve": "pwl"}),
        # the cheap pair ends every walk inside the head
        make_instance(
            [1.0, 2.0] + [10.0 + (i % 3) for i in range(22)],
            capacities=[10, 10] + [1 + i % 4 for i in range(22)],
            curve=linear_curve(10.0),
        ),
        # equal margins: sides holding as many units tie, inside the engine's band
        make_instance([5.0] * 12, capacities=[2] * 12, curve=linear_curve(10.0)),
    ]
    for inst in instances:
        rng = random.Random(inst.n)
        draws = [1, 2, 2**10] + ([1 << inst.n] if inst.n <= 12 else [])
        for count in draws:
            masks = range(count) if count == 1 << inst.n else [rng.getrandbits(inst.n) for _ in range(count)]
            side_optima = side_optima_by_mask(inst)
            for mask in masks:
                run = run_on_mask(inst, mask)
                got = side_optima(mask)
                assert (got[0].hex(), got[1].hex()) == (run.f_prime.hex(), run.f_double_prime.hex()), (inst.n, mask)


@pytest.mark.parametrize("inst, ends_in_head", [
    (generate("uniform-random", {"n": 30, "seed": 2, "qmax": 5, "curve": "pwl"}), False),
    (generate("uniform-random", {"n": 7, "seed": 4, "qmax": 3, "curve": "pwl"}), True),  # the head is every seller
    (generate("uniform-random", {"n": 12, "seed": 5, "qmax": 4, "curve": "mixed"}), False),
    # the cheap pair ends every walk inside the head
    (make_instance(
        [1.0, 2.0] + [10.0 + (i % 3) for i in range(22)],
        capacities=[10, 10] + [1 + i % 4 for i in range(22)],
        curve=linear_curve(10.0),
    ), True),
], ids=["n30", "n7", "n12", "ends-in-head"])
def test_the_walk_tabulates_its_head_once_at_construction(monkeypatch, inst, ends_in_head):
    head = inst.sorted_bids[:mechanisms._HEAD]
    head_sellers = Counter((b.valuation, b.capacity) for b in head)  # sellers may share (v, q)
    calls = []
    original = mechanisms.block_optimum

    def counted(pieces, v, q, c):
        calls.append((v, q, c))
        return original(pieces, v, q, c)

    monkeypatch.setattr(mechanisms, "block_optimum", counted)
    side_optima = side_optima_by_mask(inst)
    # the n ceilings, then at most one kernel call per (head seller, count)
    assert calls[:inst.n] == [(b.valuation, inst.total_supply, 0) for b in reversed(inst.sorted_bids)]
    assert all(k <= head_sellers[v, q] for (v, q, _), k in Counter(calls[inst.n:]).items())
    state = dict(zip(side_optima.__code__.co_freevars, (cell.cell_contents for cell in side_optima.__closure__)))
    head_bits = sum(1 << b.id for b in head)
    assert state["head_bits"] == head_bits
    table = state["head_table"]
    assert len(table) == 2 ** min(mechanisms._HEAD, inst.n)
    assert all(key & ~head_bits == 0 for key in table)
    # no draw walks a head seller: every kernel call after construction is a tail seller's
    calls.clear()
    rng = random.Random(inst.n)
    masks = [rng.getrandbits(inst.n) for _ in range(3000)]
    optima = [side_optima(mask) for mask in masks]
    assert not any(head_sellers[v, q] for v, q, _ in calls)
    assert not (ends_in_head and calls)  # a walk that ended in the head visits no tail seller
    monkeypatch.undo()
    for mask, (fa, fb) in zip(masks[:200], optima):
        run = run_on_mask(inst, mask)
        assert (fa.hex(), fb.hex()) == (run.f_prime.hex(), run.f_double_prime.hex()), mask


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


def test_engine_settles_in_band_draws_without_rescanning_or_rebuilding_the_band(monkeypatch):
    # equal margins at two units each: 3,432 of the 16,384 masks tie inside the band
    inst = make_instance([5.0] * 14, capacities=[2] * 14, curve=linear_curve(10.0))
    engine = partition_profit_engine(inst)

    def forbidden(*args, **kwargs):
        raise AssertionError("the engine rescanned a side or rebuilt the band")

    with monkeypatch.context() as patched:
        patched.setattr(mechanisms, "tie_band", forbidden)
        patched.setattr(mechanisms, "scan_single_price", forbidden)
        profits = [engine(mask) for mask in range(1 << inst.n)]
    for mask, profit in enumerate(profits):
        assert profit.hex() == split_auction(inst, mask)[0]().outcome.profit.hex(), mask


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
            inst = rescaled(inst, s)
            tested += 1
            assert_engine_matches_oracle(inst, range(1 << inst.n))
        assert tested == 40, s


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


def test_a_survivor_left_no_units_sells_nothing_and_is_paid_nothing():
    """Three survivors at the posted price, but the best count, 3 units, is
    reached inside the second seller's block: the third survivor sells
    nothing, so it is paid nothing."""
    inst = make_instance([1.0, 2.0, 3.0], capacities=[2, 2, 2], curve=capped_curve(10.0, 3))
    out = run_bid_independent(inst, make_threshold_posted(4.0))
    assert out.allocation == (2, 1, 0)
    assert out.payment_per_unit == (4.0, 4.0, 0.0)
    assert out.profit == 18.0


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
    assert sum(out.allocation) == 0
    assert out.profit == 0.0


# --- both comparators ----------------------------------------------------------


def _comparator_cases():
    """Instances for the comparator oracles: 1 to 7 sellers, capacities 1
    to 8, all three curve kinds, and asks drawn from three values, so that
    equal asks are common and break by id."""
    for seed in range(36):
        rng = random.Random(f"comparator-oracle-{seed}")
        curve = ("linear", "capped", "pwl")[seed % 3]
        inst = generate("uniform-random", {"n": rng.randint(1, 7), "seed": seed, "qmax": rng.randint(1, 8), "curve": curve})
        asks = [rng.uniform(0.0, 1.0) for _ in range(3)]
        yield Instance(tuple(Bid(rng.choice(asks), b.capacity, b.id) for b in inst.bids), inst.curve)


UNDEFINED = "every bidder won; the first losing valuation does not exist"


def _hexed(allocation, payments, profit):
    return tuple(allocation), tuple(p.hex() for p in payments), profit.hex()


def test_comparators_match_their_per_unit_oracles():
    """Kth price at every demand cap from 0 to m + 1, and the bid-independent
    auction at thresholds zero, opp and posted at 0.0, at each ask, half an
    ``EPS`` below it, and above every ask: allocation, payments and profit
    to the bit, and the raise."""
    compared = raised = 0
    for inst in _comparator_cases():
        for cap in range(inst.total_supply + 2):
            want = per_unit_kth_price(inst, cap)
            if want is None:
                with pytest.raises(UndefinedPriceError, match=f"^{UNDEFINED}$"):
                    run_kth_price(inst, cap)
                raised += 1
                continue
            out = run_kth_price(inst, cap)
            assert _hexed(out.allocation, out.payment_per_unit, out.profit) == _hexed(*want), (inst, cap)
            compared += 1
        asks = sorted({b.valuation for b in inst.bids})
        thresholds = [(threshold_zero, 0.0), (threshold_masked_opp, "opp")]
        posted = (0.0, *asks, *(a - EPS / 2 for a in asks if a > EPS), 2.0 * asks[-1] + 1.0)
        thresholds += [(make_threshold_posted(p), p) for p in posted]
        for f, spec in thresholds:
            out = run_bid_independent(inst, f)
            want = per_unit_bid_independent(inst, spec)
            assert _hexed(out.allocation, out.payment_per_unit, out.profit) == _hexed(*want), (inst, spec)
            compared += 1
    assert compared > 0 and raised > 0


def test_masked_opp_threshold_is_the_masked_instances_optimal_price():
    """The threshold is F's price on the other bids rebuilt as an instance,
    equal asks with different capacities included, whatever order the
    masked bids come in."""
    cases = [make_instance([0.4, 0.4, 0.4, 0.7], capacities=[3, 1, 2, 2], curve=capped_curve(1.0, 4))]
    cases += list(_comparator_cases())
    for inst in cases:
        for pos in range(inst.n):
            masked = inst.bids[:pos] + inst.bids[pos + 1:]
            if not masked:  # no instance has no bids: the empty scan offers 0.0
                assert threshold_masked_opp(masked, inst.curve).hex() == (0.0).hex()
                continue
            asks, capacities = [b.valuation for b in masked], [b.capacity for b in masked]
            want = optimal_single_price(make_instance(asks, capacities=capacities, curve=inst.curve)).price
            for order in (masked, masked[::-1]):
                assert threshold_masked_opp(order, inst.curve).hex() == want.hex(), (inst, pos)


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
    for name in ("pepa", "pepac", "bid-independent:zero"):  # only kth-price reads a demand cap
        with pytest.raises(ValueError, match=f"demand cap.*read only by kth-price, not by {name}"):
            resolve_mechanism(name, demand_cap=3)
    with pytest.raises(UnknownMechanismError):
        resolve_mechanism("vickrey", demand_cap=3)


def test_registry_run_uniform_interface():
    mech = resolve_mechanism("bid-independent:posted=5.0")
    run = mech.run(make_instance([1.0], curve=linear_curve(10.0)))
    assert run.partition is None
    assert run.outcome.profit == 5.0
    randomized = resolve_mechanism("pepa")
    run2 = randomized.run(TIGHT, 7)
    assert run2.partition is not None
