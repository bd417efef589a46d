import dataclasses
import json
import math
import os
import random
import re
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import procure.mechanisms as mechanisms
from procure.benchmarks import BenchmarkUndefinedError, exact_pepa_ratio, harmonic
from procure.cli import RATIO_CSV_HEADER, _fields, ratio_csv_row
from procure.mechanisms import Mechanism, MechanismRun, partition_profit_engine, resolve_mechanism
from procure.model import (
    Bid, Instance, RevenueCurve, capped_curve, dumps_instance, linear_curve, loads_instance, make_instance,
    make_outcome, pwl_curve, validate_curve,
)
import procure.simulation as simulation
from procure.simulation import (
    ReportedBid,
    audit_allocation_monotonicity,
    audit_truthfulness,
    benchmark_value,
    estimate_ratio,
    exhaustive_expected_profit,
    generate,
    sample_stdev,
    trial_seed,
)

import oracles
from oracles import (
    black_box_audit,
    black_box_monotonicity,
    enumerated_expected_profit,
    pepa_expectation_oracle,
    per_seed_partition_mask,
    per_threshold_counting,
)

TIGHT = generate("tightness", {"l": 10, "eps": 1, "n": 4})


def test_estimate_ratio_tightness():
    report = estimate_ratio(TIGHT, "pepa", "f2", trials=20000, seed=3)
    assert report.benchmark == 20.0
    assert abs(report.mean_profit - 5.0) <= 4 * report.std_error
    assert abs(report.ratio_estimate - 0.25) <= 0.01
    assert report.ratio_lower_bound_3sigma <= report.ratio_estimate


def test_estimate_ratio_is_reproducible():
    a = estimate_ratio(TIGHT, "pepa", "f2", trials=500, seed=9)
    b = estimate_ratio(TIGHT, "pepa", "f2", trials=500, seed=9)
    assert a == b
    c = estimate_ratio(TIGHT, "pepa", "f2", trials=500, seed=10)
    assert c.mean_profit != a.mean_profit or c.instance_digest != a.instance_digest


def test_an_instance_and_its_round_trip_share_a_digest():
    """Int money is stored as a float, so the instance and the one its file
    loads back hash the same."""
    inst = Instance(bids=(Bid(1, 2, 0), Bid(2, 3, 1)), curve=linear_curve(5))
    again = loads_instance(dumps_instance(inst))
    digests = {estimate_ratio(i, "pepac", "f", trials=10, seed=1).instance_digest for i in (inst, again)}
    assert len(digests) == 1


def test_estimate_ratio_deterministic_mechanism_has_zero_stderr():
    demo = generate("kth-price-demo")
    report = estimate_ratio(demo, "kth-price", "f2", trials=100, seed=0, demand_cap=200)
    assert report.std_error == 0.0
    assert report.mean_profit == 1000.0


@pytest.mark.parametrize("trials", [3, 7])
def test_a_deterministic_mechanism_reports_its_run_profit_as_the_mean(trials):
    """Replicating one profit over the trials and dividing their rounded
    sum by the trial count would round twice: 1.6360000000000003 here,
    where the run's profit is 1.6360000000000001."""
    inst = make_instance([0.762, 0.002, 0.445], curve=linear_curve(1.58))
    profit = resolve_mechanism("kth-price", demand_cap=2).run(inst, None).outcome.profit
    report = estimate_ratio(inst, "kth-price", "f", trials=trials, seed=None, demand_cap=2)
    assert (report.mean_profit, report.std_error) == (profit, 0.0)
    assert report.mean_profit == exhaustive_expected_profit(inst, "kth-price", demand_cap=2)


def test_estimate_ratio_standard_error_is_the_stdev_of_the_trials():
    inst = generate("uniform-random", {"n": 12, "seed": 5, "qmax": 4, "vmax": 0.9, "curve": "pwl"})
    for seed, trials in ((0, 2), (3, 300), (2**33, 50)):
        report = estimate_ratio(inst, "pepac", "f", trials=trials, seed=seed)
        engine = partition_profit_engine(inst)
        profits = [engine(per_seed_partition_mask(inst.n, trial_seed(seed, t))) for t in range(trials)]
        assert report.mean_profit == math.fsum(profits) / trials
        assert report.std_error == sample_stdev(Counter(profits)) / math.sqrt(trials)


def test_estimate_ratio_sums_its_counts_once(monkeypatch):
    # the mean and the standard error come from one pass of exact sums
    inst = generate("uniform-random", {"n": 12, "seed": 5, "qmax": 4, "vmax": 0.9, "curve": "pwl"})
    want = estimate_ratio(inst, "pepac", "f", trials=300, seed=3)
    calls = []
    original = simulation._moment_sums

    def counted(counts):
        calls.append(counts)
        return original(counts)

    monkeypatch.setattr(simulation, "_moment_sums", counted)
    report = estimate_ratio(inst, "pepac", "f", trials=300, seed=3)
    assert len(calls) == 1
    assert (report.mean_profit.hex(), report.std_error.hex()) == (want.mean_profit.hex(), want.std_error.hex())


def test_estimate_ratio_memory_does_not_grow_with_the_trials(monkeypatch):
    # keeping one profit per trial would hold 8 bytes a trial, 800 kB here;
    # one allowed core keeps every trial in this process, where it is traced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inst = generate("uniform-random", {"n": 6, "seed": 2, "qmax": 4, "curve": "pwl"})
    estimate_ratio(inst, "pepac", "f", trials=100, seed=1)
    tracemalloc.start()
    try:
        estimate_ratio(inst, "pepac", "f", trials=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000, peak


MC_INSTANCE = generate("uniform-random", {"n": 40, "seed": 1, "qmin": 1, "qmax": 8, "curve": "pwl"})


def _report_fields(report):
    """Every field of a report, the two moments as ``float.hex``."""
    return {**dataclasses.asdict(report), "mean_profit": report.mean_profit.hex(), "std_error": report.std_error.hex()}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """``workers(w)`` makes the Monte Carlo split use w processes, through
    the one place that reads the core count, and returns the list that
    records each fork."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(simulation, "_TRIALS_PER_WORKER", 1)

    def force(w):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
        forks.clear()
        return forks

    return force


@pytest.mark.parametrize("trials", [5_000, 10_000, 20_001])
def test_estimate_ratio_is_the_same_for_any_number_of_workers(workers, trials):
    reports = []
    for w in (1, 2, 3, 4):
        forks = workers(w)
        reports.append(_report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=trials, seed=7)))
        assert len(forks) == w - 1
        _assert_no_child_left()
    assert reports[1:] == reports[:1] * 3


def test_worker_counts_merge_in_trial_order(workers):
    engine = partition_profit_engine(MC_INSTANCE)

    def count(seeds):
        return Counter(map(engine, mechanisms.partition_masks(MC_INSTANCE.n, seeds)))

    serial = count(range(9_000))
    parts = [range(0, 10), range(10, 4_000), range(4_000, 9_000)]
    workers(3)
    assert list(simulation._count_in_workers(count, parts).items()) == list(serial.items())
    _assert_no_child_left()


def test_a_failed_worker_slice_is_counted_again_here(workers, monkeypatch):
    workers(1)
    expected = _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7))
    forks = workers(3)
    parent = os.getpid()
    build = simulation.partition_profit_engine

    def engine_failing_in_workers(instance):
        engine = build(instance)

        def profit(mask):
            if os.getpid() != parent:
                raise RuntimeError("worker failed")
            return engine(mask)

        return profit

    monkeypatch.setattr(simulation, "partition_profit_engine", engine_failing_in_workers)
    assert _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7)) == expected
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("forks_that_succeed", [0, 1, 2])
def test_a_failed_fork_counts_the_parts_left_here(workers, monkeypatch, forks_that_succeed):
    engine = partition_profit_engine(MC_INSTANCE)

    def count(seeds):
        return Counter(map(engine, mechanisms.partition_masks(MC_INSTANCE.n, seeds)))

    serial = list(count(range(9_000)).items())
    expected = _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7))
    forks = workers(4)
    fork = os.fork  # the fixture's, which records each fork made

    def fork_until_out_of_processes():
        if len(forks) >= forks_that_succeed:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_until_out_of_processes)
    assert _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7)) == expected
    assert len(forks) == forks_that_succeed
    _assert_no_child_left()
    forks.clear()
    parts = [range(0, 10), range(10, 4_000), range(4_000, 6_000), range(6_000, 9_000)]
    assert list(simulation._count_in_workers(count, parts).items()) == serial
    assert len(forks) == forks_that_succeed
    _assert_no_child_left()


def test_an_error_here_kills_and_reaps_every_worker(workers, monkeypatch):
    forks = workers(4)
    parent = os.getpid()

    def engine_failing(instance):
        def profit(mask):
            if os.getpid() != parent:
                time.sleep(10)  # a worker still busy when the error comes
            raise RuntimeError("engine failed")

        return profit

    monkeypatch.setattr(simulation, "partition_profit_engine", engine_failing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="engine failed"):
        estimate_ratio(MC_INSTANCE, "pepac", "f", trials=20_000, seed=7)
    assert time.perf_counter() - start < 5
    assert len(forks) == 3
    _assert_no_child_left()


def test_no_fork_while_a_second_thread_runs(monkeypatch):
    expected = _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def fork():
        raise AssertionError("forked while a second thread runs")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert simulation._worker_count(10_000) == 1
        assert _report_fields(estimate_ratio(MC_INSTANCE, "pepac", "f", trials=10_000, seed=7)) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_worker_count_follows_the_allowed_cores_and_the_trials(monkeypatch):
    per = simulation._TRIALS_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [simulation._worker_count(t) for t in (1, 2 * per - 1, 2 * per, 4 * per, 100 * per)] == [1, 1, 2, 4, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert simulation._worker_count(100 * per) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.delattr(os, "fork")
    assert simulation._worker_count(100 * per) == 1


# floats from about 1e-300 to 1e300, a few per list so that values repeat
_stdev_pools = st.lists(
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(-10.0, 10.0), st.integers(-300, 299)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_exact_sum_of_value_counts_rounds_as_fsum(data):
    pool = data.draw(_stdev_pools)
    xs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    _, total, _, scale = simulation._moment_sums(Counter(xs))
    assert (total / scale).hex() == math.fsum(xs).hex()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds twice before Python 3.11")
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_sample_stdev_is_statistics_stdev_bit_for_bit(data):
    pool = data.draw(_stdev_pools)
    xs = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=300))
    assert sample_stdev(Counter(xs)).hex() == statistics.stdev(xs).hex()


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 10_000))
def test_sample_stdev_of_equal_values_is_zero(x, count):
    assert sample_stdev(Counter({x: count})).hex() == "0x0.0p+0"


def test_estimate_ratio_rejects_nonpositive_benchmark():
    inst = make_instance([50.0, 60.0], curve=linear_curve(10.0))
    with pytest.raises(BenchmarkUndefinedError):
        estimate_ratio(inst, "pepa", "f2", trials=10, seed=0)


def test_benchmark_value_names():
    assert benchmark_value(TIGHT, "f") == 20.0
    assert benchmark_value(TIGHT, "f2") == 20.0
    assert benchmark_value(TIGHT, "t") == 21.0  # 40 - (9 + 10)
    with pytest.raises(ValueError):
        benchmark_value(TIGHT, "opt")


def test_trial_seed_split_is_injective_per_master():
    seeds = {trial_seed(7, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(7, 0) != trial_seed(8, 0)


def test_exhaustive_expectation():
    assert exhaustive_expected_profit(TIGHT, "pepa") == 5.0
    fixture = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))
    assert abs(exhaustive_expected_profit(fixture, "pepa") - pepa_expectation_oracle(fixture)) <= 1e-12


def test_pepa_estimators_reject_capacitated_instances():
    inst = make_instance([1.0, 2.0], capacities=[2, 1], curve=linear_curve(10.0))
    message = r"^pepa requires unit capacities; use pepac$"
    with pytest.raises(ValueError, match=message):
        estimate_ratio(inst, "pepa", "f", trials=10, seed=1)
    with pytest.raises(ValueError, match=message):
        exhaustive_expected_profit(inst, "pepa")
    estimate_ratio(inst, "pepac", "f", trials=10, seed=1)


@pytest.mark.parametrize("seed", [None, 1.5, True, False])
@pytest.mark.parametrize(
    "entry",
    [
        lambda seed: mechanisms.run_pepac(TIGHT, seed),
        lambda seed: estimate_ratio(TIGHT, "pepac", "f", 100, seed),
        lambda seed: audit_truthfulness(TIGHT, "pepac", seed=seed),
        lambda seed: audit_allocation_monotonicity(TIGHT, "pepac", seed=seed),
    ],
    ids=["run_pepac", "estimate_ratio", "audit_truthfulness", "audit_allocation_monotonicity"],
)
def test_a_seed_that_is_not_an_int_is_rejected_by_name(entry, seed):
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"):
        entry(seed)


KTH_DEMO = generate("kth-price-demo")
# (call, the message of the ValueError it raises), one row per rejected input;
# a family's row ends with its test id, which names the family its message does not
REJECTIONS = [
    # run counts: an int, not a bool, at or above the least count
    (lambda: estimate_ratio(TIGHT, "pepac", "f", True, 1), "trials must be an integer, got True"),
    (lambda: estimate_ratio(TIGHT, "pepac", "f", 2.5, 1), "trials must be an integer, got 2.5"),
    (lambda: estimate_ratio(TIGHT, "pepac", "f", 10.0, 1), "trials must be an integer, got 10.0"),
    (lambda: estimate_ratio(TIGHT, "pepac", "f", 0, 1), "trials must be >= 1, got 0"),
    (lambda: audit_allocation_monotonicity(TIGHT, "pepac", grid=2.5), "grid must be an integer, got 2.5"),
    (lambda: audit_allocation_monotonicity(TIGHT, "pepac", grid=True), "grid must be an integer, got True"),
    (lambda: audit_allocation_monotonicity(TIGHT, "pepac", grid=1), "grid must be >= 2, got 1"),
    (lambda: resolve_mechanism("kth-price", demand_cap=True).run(KTH_DEMO), "demand cap must be an integer, got True"),
    (lambda: resolve_mechanism("kth-price", demand_cap=2.5).run(KTH_DEMO), "demand cap must be an integer, got 2.5"),
    (lambda: resolve_mechanism("kth-price", demand_cap=-1).run(KTH_DEMO), "demand cap must be >= 0, got -1"),
    # the other range checks of the library's entry points
    (lambda: harmonic(0), "n must be >= 1, got 0"),
    (lambda: linear_curve(1.0).at(-1), "unit count must be >= 0, got -1"),
    (lambda: validate_curve(linear_curve(1.0), 0), "max_q must be >= 1, got 0"),
    (lambda: make_outcome(TIGHT, [0, 0], [0.0, 0.0]), "allocation/payment length must match the number of bids"),
    (lambda: audit_truthfulness(TIGHT, "pepac", dims=()), "need at least one audit dimension"),
    (lambda: generate("example1", {"n": 1}), "n must be >= 2, got 1", "example1 needs n >= 2"),
    (lambda: generate("tightness", {"n": 1}), "n must be >= 2, got 1", "tightness needs n >= 2"),
    (lambda: generate("tightness", {"l": 10.0, "eps": 0.0}), "tightness needs 0 < eps < l"),
    (lambda: generate("tightness", {"l": 10.0, "eps": 10.0}), "tightness needs 0 < eps < l"),
    (lambda: generate("uniform-random", {"n": 0}), "n must be >= 1, got 0", "uniform-random needs n >= 1"),
    (
        lambda: generate("uniform-random", {"n": 2, "qmin": 3, "qmax": 2}),
        "qmax must be >= 3, got 2",
        "uniform-random needs 1 <= qmin <= qmax",
    ),
    (lambda: generate("uniform-random", {"n": 2, "qmin": 0}), "qmin must be >= 1, got 0", "uniform-random needs 1 <= qmin <= qmax"),
    (lambda: generate("uniform-random", {"n": 2, "vmax": 0.0}), "uniform-random needs vmax > 0 and r > 0"),
    (lambda: generate("uniform-random", {"n": 2, "r": -1.0}), "uniform-random needs vmax > 0 and r > 0"),
    (lambda: generate("uniform-random", {"n": 2, "curve": "cubic"}), "unknown curve kind 'cubic' for uniform-random"),
    # counts of those entry points that are not ints, or are bools
    (lambda: harmonic(2.5), "n must be an integer, got 2.5"),
    (lambda: harmonic(True), "n must be an integer, got True"),
    (lambda: exact_pepa_ratio(4.0), "k must be an integer, got 4.0"),
    (lambda: validate_curve(linear_curve(1.0), 2.5), "max_q must be an integer, got 2.5"),
    (lambda: validate_curve(linear_curve(1.0), True), "max_q must be an integer, got True"),
    (lambda: linear_curve(1.0).at(2.5), "unit count must be an integer, got 2.5"),
    (
        lambda: generate("uniform-random", {"n": 2, "qmax": 3.0}),
        "qmax must be an integer, got 3.0",
        "uniform-random needs an integer qmax",
    ),
    (lambda: generate("uniform-random", {"n": True}), "n must be an integer, got True", "uniform-random needs an integer n"),
    (lambda: generate("example1", {"n": 2.0}), "n must be an integer, got 2.0", "example1 needs an integer n"),
    # pwl points that are not a list or tuple of [q, R] pairs
    (lambda: pwl_curve([5]), "points[0] must be a [q, R] pair, got 5"),
    (lambda: pwl_curve([(1, 2.0, 3)]), "points[0] must be a [q, R] pair, got (1, 2.0, 3)"),
    (lambda: pwl_curve("ab"), "points must be an array of [q, R] pairs"),
]


@pytest.mark.parametrize("call, message", [row[:2] for row in REJECTIONS], ids=[row[-1] for row in REJECTIONS])
def test_an_input_out_of_range_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# R(m) = 9.1e307 is finite, but the profits of its draws sum past the largest float
HUGE = generate("uniform-random", {"n": 3, "seed": 1, "curve": "pwl", "r": 1e308})


def test_exact_expectation_of_profits_summing_past_the_largest_float():
    enumerated = simulation._min_side_by_enumeration(HUGE)
    assert enumerated.hex() == simulation._min_side_by_counting(HUGE).hex()
    assert enumerated == 5.915425133516349e307


def test_monte_carlo_mean_of_profits_summing_past_the_largest_float():
    report = estimate_ratio(HUGE, "pepac", "f", trials=10, seed=1)
    engine = partition_profit_engine(HUGE)
    profits = [engine(per_seed_partition_mask(HUGE.n, trial_seed(1, t))) for t in range(10)]
    assert math.isinf(sum(profits))
    assert report.mean_profit == float(sum(map(Fraction, profits)) / 10) == 4.732340106813079e307


def test_exhaustive_single_bidder_is_zero():
    assert exhaustive_expected_profit(make_instance([3.0], curve=linear_curve(10.0)), "pepa") == 0.0


def test_exhaustive_matches_enumeration_bit_for_bit():
    for seed in range(300):
        rng = random.Random(f"enumeration-{seed}")
        qmax = 1 if seed % 2 else rng.randint(2, 4)
        inst = generate(
            "uniform-random",
            {"n": rng.randint(1, 10), "seed": seed, "qmax": qmax, "vmax": 0.9, "curve": "mixed"},
        )
        mechanism = "pepa" if inst.is_unit_capacity else "pepac"
        assert exhaustive_expected_profit(inst, mechanism) == enumerated_expected_profit(inst), seed


def _acceptance_instances(seeds):
    """The instance generators of acceptance criteria 4 (unit capacities)
    and 5 (equal and spread capacities)."""
    for seed in seeds:
        rng = random.Random(seed)
        yield generate("uniform-random", {"n": rng.randint(2, 12), "seed": seed, "vmax": 0.9, "curve": "mixed"})
        rng = random.Random(f"equal-{seed}")
        q = rng.randint(1, 4)
        yield generate(
            "uniform-random",
            {"n": rng.randint(2, 10), "seed": seed, "qmin": q, "qmax": q, "vmax": 0.9, "curve": "mixed"},
        )
        for qmax in (2, 4):
            rng = random.Random(f"range-{qmax}-{seed}")
            yield generate(
                "uniform-random",
                {"n": rng.randint(2, 10), "seed": seed, "qmax": qmax, "vmax": 0.9,
                 "curve": rng.choice(("linear", "mixed"))},
            )


def test_enumeration_and_counting_agree_bit_for_bit():
    # capacities up to 60 units per seller; multi-unit blocks asking a
    # piece's slope (v = r on a linear curve, a pwl slope, 0.0 on a capped
    # plateau), where the kernel walks the in-band parts for both methods;
    # and the acceptance criteria's generators, on which the draw walk ends
    # early at many depths
    instances = [
        make_instance([1.0, 3.0, 2.0, 3.0, 3.0], capacities=[2, 3, 4, 2, 1], curve=linear_curve(3.0)),
        make_instance([0.1, 0.3, 0.3, 0.2, 0.3], capacities=[2, 3, 4, 2, 5], curve=linear_curve(0.3)),
        make_instance([1.0, 0.5, 1.0, 2.0, 1.0], capacities=[3, 2, 5, 4, 2], curve=pwl_curve([(4, 8.0), (10, 14.0)])),
        make_instance(
            [0.7, 0.2, 0.7, 0.7, 0.3, 0.7], capacities=[3, 2, 5, 4, 2, 6], curve=pwl_curve([(5, 4.5), (12, 9.4)])
        ),
        make_instance([0.0, 0.0, 1.0, 0.5, 0.0], capacities=[3, 4, 2, 3, 2], curve=capped_curve(2.0, 5)),
        make_instance([0.0, 0.0, 0.3, 0.1], capacities=[3, 4, 2, 3], curve=capped_curve(0.7, 4)),
    ]
    for seed in range(60):
        rng = random.Random(f"methods-{seed}")
        qmax = rng.choice((1, 4, 60))
        instances.append(
            generate(
                "uniform-random",
                {"n": rng.randint(1, 7), "seed": seed, "qmax": qmax, "vmax": 0.9, "curve": "mixed"},
            )
        )
    instances += _acceptance_instances(range(40))
    # unit capacities shaped like the exact-unit benchmark: equal-margin
    # sellers and repeated asks, so one threshold's group spans several
    # sellers, plus sentinels priced out of the curve, whose g rows are all
    # non-positive
    rng = random.Random("unit-groups")
    for asks, curve in (
        ([3.0] * 10 + [500.0] * 2, linear_curve(5.0)),
        ([0.2, 0.2, 0.2, 0.4, 0.4, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 9.0, 9.0], capped_curve(0.9, 6)),
        ([1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0, 2.5, 3.0, 3.0, 60.0, 60.0], pwl_curve([(4, 12.0), (9, 22.0)])),
        ([4.2] * 13 + [700.0] * 3, linear_curve(7.0)),
    ):
        rng.shuffle(asks)
        instances.append(make_instance(asks, curve=curve))
    for seed, inst in enumerate(instances):
        enumerated = enumerated_expected_profit(inst)
        assert simulation._min_side_by_enumeration(inst).hex() == enumerated.hex(), seed
        assert simulation._min_side_by_counting(inst).hex() == enumerated.hex(), seed
        assert per_threshold_counting(inst).hex() == enumerated.hex(), seed


@pytest.mark.parametrize("n, seed, curve", [
    (2, 1, "capped"), (3, 0, "linear"), (4, 0, "linear"), (5, 0, "capped"), (5, 2, "pwl"), (6, 1, "pwl"),
])
def test_counting_skips_thresholds_that_change_no_count(monkeypatch, n, seed, curve):
    """Few sellers with 50-400 units each: most thresholds' groups add
    only states that no failing draw holds, so counting skips their DP
    runs and keeps far fewer levels than the oracle, which runs the DP at
    every threshold. The float is the oracle's and enumeration's, bit for
    bit."""
    inst = generate("uniform-random", {"n": n, "seed": seed, "qmin": 50, "qmax": 400, "curve": curve})
    levels = {}  # the number of levels each method sums, from its one call of _on_one_scale

    def record_levels(module, name):
        real = module._on_one_scale

        def on_one_scale(values):
            levels.setdefault(name, len(values))
            return real(values)

        monkeypatch.setattr(module, "_on_one_scale", on_one_scale)

    record_levels(simulation, "counting")
    record_levels(oracles, "oracle")
    counted = simulation._min_side_by_counting(inst)
    assert counted.hex() == per_threshold_counting(inst).hex() == simulation._min_side_by_enumeration(inst).hex()
    assert 0 < levels["counting"] <= levels["oracle"] // 10, levels


def test_exact_method_follows_the_shape_of_the_instance(monkeypatch):
    def refuse(instance):
        raise AssertionError("wrong method chosen")

    few_large = make_instance([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], capacities=[1500] * 6, curve=linear_curve(8.0))
    many_small = generate("uniform-random", {"n": 40, "seed": 1, "vmax": 0.9})
    # unit capacities at n = 12, the smallest size the exact-unit benchmark times
    unit_twelve = make_instance([3.0] * 10 + [500.0] * 2, curve=linear_curve(5.0))
    unit_twelve_pwl = make_instance([0.5 * i for i in range(1, 13)], curve=pwl_curve([(4, 12.0), (9, 22.0)]))
    monkeypatch.setattr(simulation, "_min_side_by_counting", refuse)
    assert exhaustive_expected_profit(few_large, "pepac") > 0
    monkeypatch.undo()
    monkeypatch.setattr(simulation, "_min_side_by_enumeration", refuse)
    assert exhaustive_expected_profit(many_small, "pepa") > 0
    assert exhaustive_expected_profit(unit_twelve, "pepa") > 0
    assert exhaustive_expected_profit(unit_twelve_pwl, "pepa") > 0


def test_exhaustive_near_tie_is_the_min_side_optimum():
    # the two sides' optima differ by 5e-10, inside the EPS band, where the
    # engine may extract the larger one; the expectation of min(f', f'') does not
    inst = make_instance([1 - 5e-10, 1.0], curve=linear_curve(10))
    assert enumerated_expected_profit(inst) == 4.50000000025
    assert pepa_expectation_oracle(inst) == 4.5
    assert exhaustive_expected_profit(inst, "pepa") == pepa_expectation_oracle(inst)


def test_exhaustive_handles_large_instances():
    inst = generate("uniform-random", {"n": 21, "seed": 0, "vmax": 0.9})
    exact = exhaustive_expected_profit(inst, "pepa")
    rep = estimate_ratio(inst, "pepa", "f2", trials=20000, seed=1)
    assert rep.std_error > 0
    assert abs(rep.mean_profit - exact) <= 4 * rep.std_error


def test_exhaustive_deterministic_mechanism_is_single_run():
    demo = generate("kth-price-demo")
    assert exhaustive_expected_profit(demo, "kth-price", demand_cap=200) == 1000.0


def test_monte_carlo_tracks_exhaustive_over_seeds():
    exact = exhaustive_expected_profit(TIGHT, "pepa")
    hits = 0
    for master in range(100):
        rep = estimate_ratio(TIGHT, "pepa", "f2", trials=400, seed=master)
        if abs(rep.mean_profit - exact) <= 4 * max(rep.std_error, 1e-12):
            hits += 1
    assert hits >= 99


def test_range_spread_bound_holds_in_monte_carlo():
    # capacities in [1, 2] under a linear curve: mean minus 3 standard
    # errors must clear an eighth of the two-winner optimum
    inst = generate("uniform-random", {"n": 8, "seed": 21, "qmax": 2, "vmax": 0.8, "curve": "linear"})
    rep = estimate_ratio(inst, "pepac", "f2", trials=20000, seed=4)
    assert rep.ratio_lower_bound_3sigma >= 1.0 / 8.0
    exact = exhaustive_expected_profit(inst, "pepac")
    assert exact >= rep.benchmark / 8.0 - 1e-9


# --- audits -------------------------------------------------------------------


def test_pepa_valuation_audit_is_clean_on_linear_curves():
    for seed in range(40):
        inst = generate("uniform-random", {"n": random.Random(seed).randint(1, 7), "seed": seed, "vmax": 1.0})
        report = audit_truthfulness(inst, "pepa", dims=("valuation",), seed=seed)
        assert report.clean, report.violations
        assert report.deviations_tested > 0


def test_slot_stealing_on_capped_curves():
    """On a hard-capped curve the extraction's per-unit offer shrinks with
    volume, so a seller priced below the going offer but not among the
    cheapest can shade their ask to steal the slot at a payment above their
    true value. The audit must surface this honestly."""
    from procure.model import capped_curve

    inst = Instance(
        bids=(
            Bid(0.48, 1, 0),
            Bid(0.57, 1, 1),
            Bid(0.66, 1, 2),
            Bid(0.29, 1, 3),
            Bid(0.43, 1, 4),
            Bid(0.79, 1, 5),
        ),
        curve=capped_curve(1.0, 1),
    )
    report = audit_truthfulness(inst, "pepa", dims=("valuation",), seed=11)
    shading = [v for v in report.violations if v.deviating_bid.v < v.true_bid.v]
    assert shading, "expected an ask-shading violation on the capped curve"
    # yet the allocation rule itself stays monotone in the reported ask
    mono = audit_allocation_monotonicity(inst, "pepa", grid=60, seed=11)
    assert mono.clean, mono.violations


def test_pepac_capacity_audit_clean_on_linear_curves():
    for seed in range(40):
        inst = generate(
            "uniform-random",
            {"n": random.Random(seed).randint(2, 6), "seed": seed, "qmin": 2, "qmax": 5, "vmax": 1.0, "curve": "linear"},
        )
        report = audit_truthfulness(inst, "pepac", dims=("valuation", "capacity"), seed=seed)
        assert report.clean, report.violations


def test_kth_price_capacity_audit_finds_the_known_deviation():
    demo = generate("kth-price-demo")
    report = audit_truthfulness(demo, "kth-price", dims=("capacity",), demand_cap=200)
    assert not report.clean
    hit = [v for v in report.violations if v.bidder == 1 and v.deviating_bid == ReportedBid(8.0, 90)]
    assert len(hit) == 1
    assert abs(hit[0].gain - 160.0) <= 1e-9


def test_audit_violations_replay():
    demo = generate("kth-price-demo")
    report = audit_truthfulness(demo, "kth-price", dims=("capacity",), demand_cap=200)
    mech = resolve_mechanism("kth-price", demand_cap=200)
    truth = mech.run(demo, 0)
    for v in report.violations:
        pos = v.bidder
        true_bid = demo.bids[pos]
        base = (truth.outcome.payment_per_unit[pos] - true_bid.valuation) * truth.outcome.allocation[pos]
        bids = list(demo.bids)
        bids[pos] = Bid(v.deviating_bid.v, v.deviating_bid.q, true_bid.id)
        dev = mech.run(Instance(bids=tuple(bids), curve=demo.curve), 0)
        gained = (dev.outcome.payment_per_unit[pos] - true_bid.valuation) * dev.outcome.allocation[pos] - base
        assert abs(gained - v.gain) <= 1e-9


def test_audit_evaluates_the_curve_a_few_times_per_deviation(monkeypatch):
    """Nothing tabulates the curve: an audit reads R through the curve's
    pieces, and calls ``RevenueCurve.at`` about once per deviation (each
    outcome's profit identity), however large the supply."""
    shape = generate("uniform-random", {"n": 6, "seed": 4, "qmin": 200, "qmax": 500, "curve": "pwl"})
    calls = 0
    at = RevenueCurve.at

    def counting_at(curve, q):
        nonlocal calls
        calls += 1
        return at(curve, q)

    monkeypatch.setattr(RevenueCurve, "at", counting_at)
    inst = Instance(bids=shape.bids, curve=pwl_curve(shape.curve.points))
    m = inst.total_supply
    assert 1800 <= m <= 2400
    report = audit_truthfulness(inst, "pepac", dims=("valuation", "capacity"), seed=3)
    assert report.deviations_tested >= 50
    assert calls <= 2 * (report.deviations_tested + 1), (calls, report.deviations_tested, m)


SPLIT_AUDITS = [
    ("pepa", ("valuation",)),
    ("pepac", ("valuation",)),
    ("pepac", ("capacity",)),
    ("pepac", ("valuation", "capacity")),
]


def _same_report(ours, oracle):
    # compared as JSON text, so a -0.0 against a 0.0 would show
    assert json.dumps(ours, default=_fields) == json.dumps(oracle, default=_fields)


@pytest.mark.parametrize("curve", ["linear", "capped", "pwl"])
@pytest.mark.parametrize("mechanism,dims", SPLIT_AUDITS)
def test_split_audits_match_the_black_box_oracle(mechanism, dims, curve):
    """Each deviation's outcome comes from the shared draw and untouched
    side; the oracle runs the whole mechanism per deviation. Every valuation
    grid probes just above and below each other ask, so deviations cross
    the other side's asks."""
    flagged = 0
    for seed in range(10):
        rng = random.Random(f"{mechanism}-{curve}-{seed}")
        qmin, qmax = (1, 1) if mechanism == "pepa" else (2, rng.randint(2, 8))
        inst = generate(
            "uniform-random",
            {"n": rng.randint(2, 6), "seed": seed, "qmin": qmin, "qmax": qmax, "vmax": 0.9, "curve": curve},
        )
        for audit_seed in (0, 7):
            report = audit_truthfulness(inst, mechanism, dims=dims, seed=audit_seed)
            _same_report(report, black_box_audit(inst, mechanism, dims=dims, seed=audit_seed))
            flagged += not report.clean
    if curve == "linear":
        assert flagged == 0


@pytest.mark.parametrize(
    "spec, audit_seed, violations",
    [
        ({"n": 5, "seed": 1064135951, "curve": "capped"}, 110, [(3, "0.0004836")] * 4),
        ({"n": 4, "seed": 1891875126, "curve": "pwl"}, 587, [(2, "0.0007851")]),
    ],
    ids=["capped", "pwl"],
)
def test_the_audit_flags_gains_between_its_tolerance_and_a_thousandth(spec, audit_seed, violations):
    """Two concave-curve audits whose only gains lie between ``GAIN_TOL``
    (1e-6) and 1e-3: a tolerance a thousand times coarser reports them
    clean."""
    inst = generate("uniform-random", {**spec, "qmin": 1, "qmax": 4, "vmax": 0.9})
    dims = ("valuation", "capacity")
    report = audit_truthfulness(inst, "pepac", dims=dims, seed=audit_seed)
    assert [(v.bidder, f"{v.gain:.4g}") for v in report.violations] == violations
    _same_report(report, black_box_audit(inst, "pepac", dims=dims, seed=audit_seed))


@pytest.mark.parametrize(
    "inst",
    [
        make_instance([0.3, 0.3, 0.3, 0.3], curve=linear_curve(1.0)),  # equal asks, ties on profit
        make_instance([0.0, 0.4, 0.4, 0.7, 0.2], curve=capped_curve(1.0, 2)),  # a zero ask
        make_instance([0.0, 0.25, 0.25, 0.6], capacities=[2, 1, 3, 2], curve=capped_curve(1.0, 4)),
        make_instance([0.5, 0.5, 0.5], capacities=[2, 2, 2], curve=linear_curve(1.0)),
    ],
)
def test_split_audits_match_the_oracle_on_ties_and_zero_asks(inst):
    for mechanism, dims in SPLIT_AUDITS:
        if mechanism == "pepa" and not inst.is_unit_capacity:
            continue
        if "capacity" in dims and inst.is_unit_capacity:
            continue
        for seed in range(8):
            ours = audit_truthfulness(inst, mechanism, dims=dims, seed=seed)
            _same_report(ours, black_box_audit(inst, mechanism, dims=dims, seed=seed))


def test_monotonicity_sweep_matches_the_black_box_oracle():
    cases = [
        (generate("uniform-random", {"n": 5, "seed": 4, "vmax": 0.9, "curve": "capped"}), "pepa", None),
        (generate("uniform-random", {"n": 4, "seed": 2, "qmax": 4, "curve": "pwl"}), "pepac", None),
        (make_instance([0.0, 0.3, 0.3], capacities=[2, 1, 2], curve=capped_curve(1.0, 3)), "pepac", None),
        (generate("kth-price-demo"), "kth-price", 200),
        (make_instance([1.0, 2.0, 3.0], curve=linear_curve(10.0)), "bid-independent:posted=4.0", None),
    ]
    for inst, mechanism, cap in cases:
        for seed in (0, 3):
            ours = audit_allocation_monotonicity(inst, mechanism, grid=20, seed=seed, demand_cap=cap)
            _same_report(ours, black_box_monotonicity(inst, mechanism, grid=20, seed=seed, demand_cap=cap))


def test_split_audits_validate_every_deviation_and_draw_the_coins_once(monkeypatch):
    """Every deviation still builds and validates its instance and checks
    its outcome, but the coins are drawn and the truthful sides scanned once
    for the truthful run and all deviations together, and a deviation scans
    only the deviator's side."""
    cases = [
        (generate("uniform-random", {"n": 6, "seed": 3, "vmax": 0.9, "curve": "capped"}), "pepa", ("valuation",)),
        (
            generate("uniform-random", {"n": 5, "seed": 8, "qmin": 3, "qmax": 9, "curve": "pwl"}),
            "pepac",
            ("valuation", "capacity"),
        ),
    ]
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("make_outcome", "partition_masks", "scan_single_price"):
        monkeypatch.setattr(mechanisms, name, counted(name, getattr(mechanisms, name)))
    monkeypatch.setattr(Instance, "__post_init__", counted("Instance", Instance.__post_init__))
    for inst, mechanism, dims in cases:
        counts.clear()
        report = audit_truthfulness(inst, mechanism, dims=dims, seed=3)
        deviations = report.deviations_tested
        assert deviations >= 20
        assert counts["make_outcome"] == deviations + 1, counts
        assert counts["Instance"] == deviations, counts
        assert counts["partition_masks"] == 1, counts
        assert counts["scan_single_price"] <= deviations + 2, counts
        counts.clear()
        report = audit_allocation_monotonicity(inst, mechanism, grid=10, seed=3)
        assert counts["make_outcome"] == counts["Instance"] == report.deviations_tested, counts
        assert counts["partition_masks"] == 1, counts


def test_capacity_audit_requires_capacitated_instance():
    inst = make_instance([1.0, 2.0], curve=linear_curve(10.0))
    with pytest.raises(ValueError):
        audit_truthfulness(inst, "pepa", dims=("capacity",))


def test_audit_rejects_unknown_dimension():
    with pytest.raises(ValueError):
        audit_truthfulness(TIGHT, "pepa", dims=("collusion",))


def test_pepa_allocation_monotone():
    inst = make_instance([1.0, 9.0, 10.0, 10.0], curve=linear_curve(10.0))
    report = audit_allocation_monotonicity(inst, "pepa", grid=40, seed=5)
    assert report.clean, report.violations


def test_pepac_allocation_monotone_on_mixed_curves():
    for seed in range(25):
        inst = generate(
            "uniform-random",
            {"n": random.Random(seed).randint(2, 5), "seed": seed, "qmax": 3, "vmax": 1.0, "curve": "mixed"},
        )
        report = audit_allocation_monotonicity(inst, "pepac", grid=25, seed=seed)
        assert report.clean, (seed, report.violations)


def test_posted_price_allocation_steps_down_at_the_price():
    inst = make_instance([1.0, 2.0, 3.0], curve=linear_curve(10.0))
    report = audit_allocation_monotonicity(inst, "bid-independent:posted=4.0", grid=30)
    assert report.clean
    # and the underlying allocation is a step function dropping at the posted price
    from procure.mechanisms import make_threshold_posted, run_bid_independent

    allocations = []
    for v in [0.0, 2.0, 3.9, 4.0, 4.1, 6.0]:
        bids = list(inst.bids)
        bids[0] = Bid(v, 1, 0)
        out = run_bid_independent(Instance(bids=tuple(bids), curve=inst.curve), make_threshold_posted(4.0))
        allocations.append(out.allocation[0])
    assert allocations == [1, 1, 1, 1, 0, 0]


def test_kth_price_valuation_sweep_is_monotone():
    demo = generate("kth-price-demo")
    report = audit_allocation_monotonicity(demo, "kth-price", grid=50, demand_cap=200)
    assert report.clean, report.violations


def test_monotonicity_sweep_flags_an_allocation_that_rises_with_the_ask(monkeypatch):
    """A rule that buys seller 0's three units only once it asks 3 or more:
    the sweep over 0, 2, 4 and 6 flags the step from 2 to 4, a jump of three
    units, and nothing else."""

    def rising(instance, seed=None):
        alloc = [3 if instance.bids[0].valuation >= 3.0 else 0, 0]
        return MechanismRun(make_outcome(instance, alloc, [float(alloc[0] and 9.0), 0.0]))

    monkeypatch.setattr(simulation, "resolve_mechanism", lambda name, demand_cap=None: Mechanism(name, False, rising))
    inst = make_instance([1.0, 3.0], capacities=[3, 1], curve=linear_curve(10.0))
    report = audit_allocation_monotonicity(inst, "rising", grid=4)
    assert report.deviations_tested == 8
    (violation,) = report.violations
    assert violation.bidder == 0
    assert violation.dim == "valuation"
    assert violation.true_bid == ReportedBid(2.0, 3)
    assert violation.deviating_bid == ReportedBid(4.0, 3)
    assert violation.gain == 3.0


def test_an_ask_near_the_float_limit_audits_without_an_overflowing_probe():
    """Twice the ask 1e308 is inf, which is no valuation: the truthfulness
    audit drops that probe and keeps 1.1 times the ask, and the sweep is
    capped below the float limit instead of starting at ``inf * 0``. The
    CLI audit of the same instance is in ``test_cli.py``."""
    inst = make_instance([1.0, 1e308, 2.0], curve=linear_curve(10.0))
    probes = simulation._valuation_grid(inst, 1, resolve_mechanism("pepa").run(inst, 1))
    assert math.inf not in probes and 1.1 * 1e308 in probes
    report = audit_allocation_monotonicity(inst, "pepa", seed=1)
    assert report == black_box_monotonicity(inst, "pepa", seed=1)
    assert report.deviations_tested == 64 * inst.n


# --- generators -----------------------------------------------------------------


def test_example1_family():
    inst = generate("example1", {"r": 10, "eps": 1, "n": 4})
    assert [b.valuation for b in inst.bids] == [1.0, 9.0, 10.0, 10.0]
    assert inst.is_unit_capacity
    assert inst.curve.kind == "linear" and inst.curve.r == 10.0


def test_tightness_family():
    inst = generate("tightness", {"l": 10, "eps": 1, "n": 4})
    assert [b.valuation for b in inst.bids] == [9.0, 10.0, 1000.0, 1000.0]
    assert inst.curve.r == 20.0


def test_lowball_family():
    inst = generate("lowball", {"r": 10, "L": 9.9})
    vals = [b.valuation for b in inst.bids]
    assert vals[0] == 9.9 and vals[-1] == 10.0
    assert len(vals) == 3
    assert inst.curve.r == 10.0
    with pytest.raises(ValueError):
        generate("lowball", {"r": 10, "L": 11})


def test_kth_price_demo_family():
    inst = generate("kth-price-demo")
    assert [(b.valuation, b.capacity) for b in inst.bids] == [
        (6.0, 100),
        (8.0, 100),
        (10.0, 200),
        (12.0, 100),
    ]
    assert inst.curve.kind == "capped"
    assert inst.curve.at(200) == 3000.0
    assert inst.curve.at(300) == 3000.0


def test_uniform_random_family_is_deterministic():
    params = {"n": 6, "seed": 12, "qmax": 3, "vmax": 1.5, "curve": "mixed"}
    a = generate("uniform-random", params)
    b = generate("uniform-random", params)
    assert a == b
    c = generate("uniform-random", {**params, "seed": 13})
    assert c != a


def test_generate_errors():
    with pytest.raises(ValueError):
        generate("nonesuch")
    with pytest.raises(ValueError):
        generate("example1", {"r": 10, "eps": 1, "n": 4, "bogus": 1})
    with pytest.raises(ValueError):
        generate("example1", {"r": 10, "eps": 20, "n": 4})


# --- reports ----------------------------------------------------------------------


def test_ratio_csv_row_shape():
    import csv
    import io

    report = estimate_ratio(TIGHT, "pepa", "f2", trials=100, seed=1)
    row = ratio_csv_row(report, "tightness", "l=10,eps=1,n=4", "pepa", "f2")
    fields = next(csv.reader(io.StringIO(row)))
    assert len(fields) == len(RATIO_CSV_HEADER.split(","))
    assert fields[:6] == ["tightness", "l=10,eps=1,n=4", "pepa", "f2", "100", repr(report.mean_profit)]
    assert float(fields[7]) == report.ratio_estimate


def test_digest_depends_on_config():
    a = estimate_ratio(TIGHT, "pepa", "f2", trials=100, seed=1)
    b = estimate_ratio(TIGHT, "pepa", "f2", trials=100, seed=2)
    assert a.instance_digest != b.instance_digest
