"""Monte Carlo profit estimation, truthfulness and monotonicity audits, and
generators for the worked instance families.

Per-trial randomness derives from the master seed by a counter split:
trial t uses seed ``master * 2**32 + t``. Trials are independent and their
mean and standard deviation are computed exactly, so reports are
reproducible for a fixed (instance, mechanism, seed) triple regardless of
how the loop is scheduled, or over how many processes it is split.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import math
import os
import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from . import benchmarks, mechanisms
from .mechanisms import (
    Mechanism,
    partition_profit_engine,
    require_seed,
    require_unit_capacity,
    resolve_mechanism,
    side_optima_by_mask,
    split_auction,
)
from .model import Instance, capped_curve, instance_to_json_dict, linear_curve, make_instance, pwl_curve

GAIN_TOL = 1e-6  # a deviation must beat truth by more than this to count as a violation
# Fewest Monte Carlo trials worth a worker process. Forking and reaping a
# 24 MB interpreter costs about 2.1 ms, a trial 3-5 us, and each worker
# warms its own walk memo. On 30-42 capacitated sellers (2-vCPU machine,
# Python 3.11), two workers break even with one at about 2,000 trials in
# all, save about 10% at 4,096 and about 25% at 10,000. Only two workers
# have been timed: the cost of three or more, each forked in turn before
# the first slice starts, is not measured. The core count is the affinity
# mask, so a CPU quota (a cgroup's cpu.max) is not seen, and under a quota
# of one core the workers cost their forks and warm-ups for no gain.
_TRIALS_PER_WORKER = 2048


@dataclass(frozen=True)
class RatioReport:
    trials: int
    mean_profit: float
    std_error: float
    benchmark: float
    ratio_estimate: float
    ratio_lower_bound_3sigma: float
    instance_digest: str


def _ratio_report(trials: int, mean: float, stderr: float, bench: float, digest: str) -> RatioReport:
    """The report of a mean profit and its standard error against a benchmark."""
    return RatioReport(
        trials=trials,
        mean_profit=mean,
        std_error=stderr,
        benchmark=bench,
        ratio_estimate=mean / bench,
        ratio_lower_bound_3sigma=(mean - 3.0 * stderr) / bench,
        instance_digest=digest,
    )


@dataclass(frozen=True)
class ReportedBid:
    """A seller's report in an audit violation: ask per unit ``v`` and
    capacity ``q``, the field names of a bid in the instance file format."""

    v: float
    q: int


@dataclass(frozen=True)
class AuditViolation:
    bidder: int
    dim: str
    true_bid: ReportedBid
    deviating_bid: ReportedBid
    gain: float


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    deviations_tested: int
    violations: tuple[AuditViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def benchmark_value(instance: Instance, name: str) -> float:
    """Profit of the named benchmark: 'f', 't', or 'f2'."""
    if name == "f":
        return benchmarks.optimal_single_price(instance).profit
    if name == "t":
        return benchmarks.optimal_multi_price(instance).profit
    if name == "f2":
        return benchmarks.optimal_single_price_min2(instance).profit
    raise ValueError(f"unknown benchmark {name!r}; expected f, t, or f2")


def _positive_benchmark(instance: Instance, name: str) -> float:
    """The named benchmark's profit, a ratio's denominator: one that is
    undefined or not strictly positive raises
    :class:`benchmarks.BenchmarkUndefinedError`."""
    bench = benchmark_value(instance, name)
    if bench <= 0:
        raise benchmarks.BenchmarkUndefinedError(f"benchmark {name!r} is {bench:.6g} on this instance; nothing to divide by")
    return bench


def trial_seed(master: int, index: int) -> int:
    """Counter-based per-trial seed split: disjoint for distinct trial indices below 2**32."""
    return master * 2**32 + index


def _instance_digest(
    instance: Instance, mechanism: str, benchmark: str, trials: int, seed: int | None, demand_cap: int | None
) -> str:
    """The replay key of a Monte Carlo report: a hash of everything its
    numbers depend on. The demand cap, which only ``kth-price`` reads,
    enters only when one is given."""
    payload = {
        "instance": instance_to_json_dict(instance),
        "mechanism": mechanism,
        "benchmark": benchmark,
        "trials": trials,
        "seed": seed,
    }
    if demand_cap is not None:
        payload["demand_cap"] = demand_cap
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _resolve_for(instance: Instance, mechanism: str, demand_cap: int | None) -> Mechanism:
    """The named mechanism, once ``pepa``'s unit-capacity precondition holds."""
    mech = resolve_mechanism(mechanism, demand_cap=demand_cap)
    if mechanism == "pepa":
        require_unit_capacity(instance)
    return mech


def _sqrt_of_fraction(num: int, den: int) -> float:
    """The square root of num / den (num >= 0, den > 0), correctly rounded.

    The integer square root of num / den scaled by 4^-q keeps at least 109
    bits, and its last bit is set when the root is inexact (round to odd).
    With more than twice the 53 bits of a float, round to odd followed by
    the correctly rounded int division gives the correctly rounded root,
    subnormals included. This is how ``statistics`` takes the root on
    Python 3.11 and later.
    """
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    if q >= 0:
        return float(root << q)
    return root / (1 << -q)


def _on_one_scale(values) -> tuple[list[int], int]:
    """Finite floats as exact ints on one power-of-two scale: (ints, scale)
    with ints[i] / scale equal to values[i] as rationals.

    Every float is an integer times a power of two, so the largest
    denominator of their ``as_integer_ratio`` is a multiple of every other.
    The scale is 1 when ``values`` is empty.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios], scale


def _moment_sums(counts: Counter) -> tuple[int, int, int, int]:
    """(N, S1, S2, scale) of a multiset of finite floats given as value ->
    count: N the count, and S1 = sum c X and S2 = sum c X^2 over the values
    X as exact ints on one scale (:func:`_on_one_scale`). S1 / scale is
    the sum of the multiset, exactly."""
    xs, scale = _on_one_scale(counts)
    n = s1 = s2 = 0
    for x, c in zip(xs, counts.values()):
        n += c
        s1 += c * x
        s2 += c * x * x
    return n, s1, s2, scale


def sample_stdev(counts: Counter) -> float:
    """The sample standard deviation of a multiset of finite floats given as
    value -> count, as ``statistics.stdev`` over the expanded list returns
    it on Python 3.11 and later, bit for bit.

    With N, S1 and S2 the exact sums of :func:`_moment_sums`, the sample
    variance is exactly (N S2 - S1^2) / (N (N - 1)) over the squared scale.
    Its square root is rounded once (:func:`_sqrt_of_fraction`). A Monte
    Carlo run's profits take a few hundred distinct values, so this costs a
    pass over the distinct values, not over the trials. On Python 3.10,
    whose ``stdev`` rounds the variance to a float before its square root,
    the result can differ from that ``stdev`` in the last bit; it matches
    3.11 and later. Needs N >= 2.
    """
    n, s1, s2, scale = _moment_sums(counts)
    return _sqrt_of_fraction(n * s2 - s1 * s1, n * (n - 1) * scale * scale)


def _worker_count(trials: int) -> int:
    """How many processes share ``trials`` Monte Carlo trials: one per
    allowed core, each with at least ``_TRIALS_PER_WORKER`` trials. One
    where ``os.fork`` or ``os.sched_getaffinity`` is missing, and while a
    second thread runs, since forking a threaded process can deadlock."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // _TRIALS_PER_WORKER))


def _count_in_workers(count, parts: list[range]) -> Counter:
    """The value counts of all ``parts`` merged in order, as ``count`` of
    their concatenation would give them: the same values, counts and key
    order.

    ``parts[0]`` is counted here and each later part in a forked child,
    which sends ``marshal.dumps`` of its counts through a pipe and leaves
    with ``os._exit``. A part whose child exits non-zero is counted here
    again, so its exception surfaces with its traceback. If a fork fails
    (no process or memory to spare), that part and every later one are
    counted here. No child outlives the call: any left unreaped, on an
    exception here, is killed and reaped.
    """
    children = []  # [pid, read end, part] per child; pid is None before the fork and once reaped
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            children.append([None, open(read_end, "rb"), part])
            with open(write_end, "wb") as pipe:
                try:
                    pid = os.fork()
                except OSError:
                    children.pop()[1].close()
                    break
                if pid == 0:  # the child never returns into the caller's frames
                    status = 1
                    try:
                        pipe.write(marshal.dumps(dict(count(part))))
                        pipe.close()
                        status = 0
                    finally:
                        os._exit(status)
            children[-1][0] = pid
        counts = count(parts[0])
        for child in children:
            pid, pipe, part = child
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            child[0] = None
            counts.update(marshal.loads(data) if status == 0 else count(part))
        for part in parts[1 + len(children):]:
            counts.update(count(part))
        return counts
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if pid is not None:
                from signal import SIGKILL  # not imported at the top: it adds about 1 ms to every start

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def estimate_ratio(
    instance: Instance,
    mechanism: str,
    benchmark: str,
    trials: int,
    seed: int | None,
    demand_cap: int | None = None,
) -> RatioReport:
    """Monte Carlo estimate of expected profit relative to a benchmark.

    Rejects instances whose benchmark is undefined or not strictly
    positive (:class:`benchmarks.BenchmarkUndefinedError`). A
    deterministic mechanism is executed once: its mean is that run's
    profit, bit for bit, and its standard error is exactly 0.

    Trial t draws its coins from seed ``trial_seed(seed, t)``, which is
    ``trial_seed(seed, 0) + t``, so the masks of all trials come from one
    :func:`mechanisms.partition_masks` stream over that range. The profits
    are kept as value counts, so memory does not grow with the trial count.
    Both moments are exact and do not depend on the order of the trials:
    the mean is the exact sum of the counts (:func:`_moment_sums`), rounded
    once as ``math.fsum`` rounds it, divided by the trial count (or, where
    that sum is past the largest float, the exact mean rounded once), and the
    standard deviation is :func:`sample_stdev` of the counts, the correctly
    rounded square root of the exact sample variance. A randomized
    mechanism rejects a seed that is not a non-negative int, naming it
    (:func:`mechanisms.require_seed`).

    The trial range is cut into contiguous slices, one per allowed core
    with at least ``_TRIALS_PER_WORKER`` trials each (:func:`_worker_count`),
    and all slices but the first are counted in forked children
    (:func:`_count_in_workers`). The counts are exact and merged in trial
    order, so the report is the same, bit for bit, for any number of
    workers. The engine is built once, before the forks; each worker warms
    its own walk memo.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    bench = _positive_benchmark(instance, benchmark)
    mech = _resolve_for(instance, mechanism, demand_cap)
    if mech.randomized:
        require_seed(seed)
        base = trial_seed(seed, 0)
        engine = partition_profit_engine(instance)

        def count(seeds: range) -> Counter:
            return Counter(map(engine, mechanisms.partition_masks(instance.n, seeds)))

        w = _worker_count(trials)
        cuts = [base + trials * i // w for i in range(w + 1)]
        counts = _count_in_workers(count, [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])])
        _, total, _, scale = _moment_sums(counts)
        try:
            mean = total / scale / trials
        except OverflowError:  # the sum is past the largest float; its mean is not
            mean = total / (scale * trials)
        stderr = (sample_stdev(counts) if trials > 1 else 0.0) / math.sqrt(trials)
    else:
        mean, stderr = mech.run(instance, None).outcome.profit, 0.0
    return _ratio_report(trials, mean, stderr, bench, _instance_digest(instance, mechanism, benchmark, trials, seed, demand_cap))


def exhaustive_expected_profit(instance: Instance, mechanism: str, demand_cap: int | None = None) -> float:
    """Exact expected profit over all 2^n equally likely coin-flip partitions.

    For the random-split auctions this is E[min(f', f'')], for any number
    of bidders: by threshold counting, in time polynomial in n and the total
    supply, or by walking the 2^n draws when there are few sellers with
    large capacities. Deterministic mechanisms are evaluated once.
    """
    mech = _resolve_for(instance, mechanism, demand_cap)
    if not mech.randomized:
        return mech.run(instance, None).outcome.profit
    return _expected_min_side_optimum(instance)


def exact_ratio(instance: Instance, mechanism: str, benchmark: str, demand_cap: int | None = None) -> RatioReport:
    """Exact expected profit relative to a benchmark, as a zero-trial report.

    Rejects instances whose benchmark is undefined or not strictly
    positive (:class:`benchmarks.BenchmarkUndefinedError`). The
    standard error is 0.0, so the 3-sigma lower bound is the estimate, bit
    for bit.
    """
    bench = _positive_benchmark(instance, benchmark)
    expected = exhaustive_expected_profit(instance, mechanism, demand_cap=demand_cap)
    return _ratio_report(0, expected, 0.0, bench, "")


def _side_thresholds(instance: Instance) -> list[list[float]]:
    """g[j][c]: the best single-price profit ending in the block of the j-th
    cheapest seller, when c units of cheaper sellers precede it on its side.

    Each entry is the profit :func:`benchmarks.block_optimum` returns for
    (j, c), the float the per-draw walk (:func:`side_optima_by_mask`) and
    :func:`mechanisms.run_pepac` compute, so a side's optimum is exactly
    ``max(0, g[j][c_j] over its members)``. Only the profits are
    thresholds; the counts reaching them are not kept. Row j has one entry
    per count c in 0..before_j, the supply of the sellers cheaper than j,
    each a kernel call that reads O(pieces) counts of the block.
    """
    pieces = instance.curve.pieces
    g = []
    before = 0
    for b in instance.sorted_bids:
        v, q = b.valuation, b.capacity
        g.append([benchmarks.block_optimum(pieces, v, q, c)[0] for c in range(before + 1)])
        before += q
    return g


# Enumerating one draw costs about as much as one DP step on this many bits
# of packed state (a few Python bytecode ops against a shift, a mask and an
# add on a long int); calibrated on a 2-vCPU x86 machine.
_DRAW_COST_IN_DP_BITS = 2**12


def _expected_min_side_optimum(instance: Instance) -> float:
    """E[min(f', f'')] over the 2^n fair coin splits, exactly.

    Two exact methods give the same float: :func:`_min_side_by_enumeration`
    walks one draw of each complementary pair, :func:`_min_side_by_counting`
    counts draws per threshold. The one with the smaller estimated cost
    runs: n * 2^(n-1) enumeration steps against, for each of the up to
    ``states`` thresholds, a DP of at most n steps on (n + 1) * m-bit ints,
    m the total supply. Few sellers with large capacities enumerate; many
    sellers count.

    The split auction earns min(f', f'') on every draw up to the extraction
    tolerance: when f' and f'' lie within the ``EPS`` band the engine may
    keep the larger side, so per draw its profit can exceed this minimum by
    up to m * EPS.
    """
    n = instance.n
    m = instance.total_supply
    befores = list(accumulate((b.capacity for b in instance.sorted_bids), initial=0))[:-1]
    states = sum(befores) + n  # (j, c) pairs of g, at least the number of thresholds
    count_cost = states * n * (1 + (n + 1) * m // _DRAW_COST_IN_DP_BITS)
    if n << (n - 1) <= count_cost:
        return _min_side_by_enumeration(instance)
    return _min_side_by_counting(instance)


def _min_side_by_enumeration(instance: Instance) -> float:
    """The exact sum of min(f', f'') over all 2^n draws divided by 2^n,
    rounded once, walking only half of them.

    A draw's complement swaps its sides, so the walk returns (f'', f') for
    it and the two draws share one minimum. The 2^(n-1) masks with bit
    n - 1 clear hold one draw of each pair, so the sum over all 2^n draws is
    twice theirs. The minima are counted by value and summed exactly as
    ints on one power-of-two scale (:func:`_moment_sums`), and one int
    division by that scale times 2^(n-1) rounds the mean, as in
    :func:`_min_side_by_counting`. Wherever ``fsum`` of the minima is
    finite and the mean is a normal float, that is ``fsum`` divided by
    2^(n-1); a sum past the largest float does not overflow.

    Each draw's (f', f'') comes from :func:`mechanisms.side_optima_by_mask`,
    the walk the Monte Carlo engine runs, which computes each threshold
    g(j, c) of :func:`_side_thresholds` on first use, only at the c that
    some subset of cheaper sellers can hold: at most 2^(n-1) * m float
    operations in all. A draw's walk ends once no remaining seller can
    raise either side, and starts after the ``mechanisms._HEAD`` cheapest
    sellers from the state its memo keeps for their coins, at most
    2^_HEAD entries. A minimum is 0 or some g(j, c), so the counts hold at
    most one entry per threshold, and memory does not grow with the number
    of draws. The walk's bit i is bidder i, the bid at position i, not the
    i-th cheapest, but either order yields the same multiset of minima over
    all 2^n masks, hence over the half, and the sum is exact, so it does
    not depend on it.
    """
    side_optima = side_optima_by_mask(instance)
    counts = Counter(min(side_optima(mask)) for mask in range(1 << (instance.n - 1)))
    _, total, _, scale = _moment_sums(counts)
    return total / (scale << (instance.n - 1))


def _min_side_by_counting(instance: Instance) -> float:
    """E[min(f', f'')] by counting, for each threshold t, the draws on which
    both sides reach t.

    Side b' reaches t > 0 iff some member j has g[j][c_j] >= t, with g from
    :func:`_side_thresholds`. So the number of draws on which both sides
    reach t is 2^n - 2 * fail(t) + fail_both(t): fail(t) counts the draws on
    which b' stays below t (b'' alike, by symmetry), fail_both(t) those on
    which both do. Each count is a DP over the sellers in ascending order
    whose state c is the number of units on b' so far. Only the positive
    g-values can be thresholds. They are swept in ascending order until no
    draw reaches one, and t times the number of draws whose minimum is t is
    summed exactly, as ints on one power-of-two scale (:func:`_on_one_scale`),
    and rounded once by an int division: the same float as ``fsum`` over
    all 2^n draws divided by 2^n.

    A DP row holds one count per state c. It is packed into one int,
    ``width`` bits per state, so moving every count of a row by q states is
    one shift by q * width bits, and a seller's step is a few shifts, masks
    and adds instead of a loop over c. The masks ``on_a[j]`` and ``on_b[j]``
    select the states in which seller j may join b' (g[j][c] < t) or b''
    (g[j][before_j - c] < t) and stay below t; they start with the
    non-positive g-values and grow as the sweep passes each positive one.
    No count exceeds 2^n < 2^width, so fields never carry into each other
    and the total of a row is the int modulo 2^width - 1.

    Passing a threshold changes only the masks of the sellers in its group,
    so the DP keeps the ``fail`` and ``fail_both`` rows before each seller
    and re-runs only from the cheapest seller whose masks changed, the first
    of the group in the sorted sweep. The rows are 2(n + 1) ints of at most
    (n + 1) * (m + 1) bits, m the total supply: about as much memory as the
    2n masks already hold. The counts are the ints the whole DP computes.
    """
    g = _side_thresholds(instance)
    n = instance.n
    width = n + 1
    field = (1 << width) - 1
    on_a = []
    on_b = []
    sweep = []
    for j, gj in enumerate(g):
        a = b = 0
        top = len(gj) - 1
        for c, value in enumerate(gj):
            if value > 0:
                sweep.append((value, j, c))
            else:  # seller j stays below every threshold on a side holding c cheaper units
                a |= field << (c * width)
                b |= field << ((top - c) * width)
        on_a.append(a)
        on_b.append(b)
    sweep.sort()
    shifts = [b.capacity * width for b in instance.sorted_bids]
    fail_rows = [1] * (n + 1)  # fail_rows[j]: the fail row before seller j
    both_rows = [1] * (n + 1)
    levels = []  # (t, draws on which both sides reach t), t ascending
    start = k = 0
    while k < len(sweep):
        t = sweep[k][0]
        fail = fail_rows[start]
        fail_both = both_rows[start]
        for j in range(start, n):
            a = on_a[j]
            s = shifts[j]
            fail += (fail & a) << s
            fail_both = (fail_both & on_b[j]) + ((fail_both & a) << s)
            fail_rows[j + 1] = fail
            both_rows[j + 1] = fail_both
        reached = (1 << n) - 2 * (fail % field) + fail_both % field
        if not reached:
            break
        levels.append((t, reached))
        start = sweep[k][1]
        while k < len(sweep) and sweep[k][0] == t:
            _, j, c = sweep[k]
            # seller j may now stay below t on a side holding c cheaper units
            on_a[j] |= field << (c * width)
            on_b[j] |= field << ((len(g[j]) - 1 - c) * width)
            k += 1
    ts, scale = _on_one_scale([t for t, _ in levels])
    total = sum(t * (reached - above) for t, (_, reached), (_, above) in zip(ts, levels, levels[1:] + [(None, 0)]))
    return total / (scale << n)


# --- audits -------------------------------------------------------------------


def seller_utility(outcome, position: int, true_valuation: float) -> float:
    """The utility in ``outcome`` of the seller at ``position`` whose true
    value is ``true_valuation``; 0.0 when it sells nothing, where
    (payment - value) * 0 would give -0.0."""
    x = outcome.allocation[position]
    if x == 0:
        return 0.0
    return (outcome.payment_per_unit[position] - true_valuation) * x


def _deviation_evaluator(instance: Instance, mech: Mechanism, seed: int | None):
    """The audits' one reader of outcomes under ``seed``: ``(truth,
    outcome_of)``, with ``truth()`` the truthful run and ``outcome_of`` a
    closure mapping (position, v', q') to the outcome of ``mech`` on the
    instance with that bid. The split auctions draw their coins and scan
    the truthful sides once, for both (:func:`mechanisms.split_auction`);
    every other mechanism runs on the deviating instance."""
    if mech.randomized:
        return split_auction(instance, next(mechanisms.partition_masks(instance.n, (seed,))), seed)

    def outcome(position: int, valuation: float, capacity: int):
        return mech.run(instance.with_bid(position, valuation, capacity), seed).outcome

    return lambda: mech.run(instance, seed), outcome


def _valuation_grid(instance: Instance, position: int, truth_run) -> list[float]:
    """Deviation probes: scaled own value, the breakpoints set by the other
    bids, and the bidder's own offered payment when they won. A scaled
    value that overflows to inf is not a valuation, and is dropped."""
    v = instance.bids[position].valuation
    delta = 1e-6
    probes = {0.0, 0.5 * v, 0.9 * v, 1.1 * v, 2.0 * v}
    for j, other in enumerate(instance.bids):
        if j == position:
            continue
        probes.add(other.valuation + delta)
        probes.add(max(0.0, other.valuation - delta))
    if truth_run.outcome.allocation[position] > 0:
        p = truth_run.outcome.payment_per_unit[position]
        probes.add(p + delta)
        probes.add(max(0.0, p - delta))
    probes.difference_update((v, math.inf))
    return sorted(probes)


def _capacity_grid(capacity: int) -> list[int]:
    """Underreport probes only: oversupply is assumed contract-enforced."""
    if capacity <= 1:
        return []
    probes = {capacity // 2, round(0.9 * capacity), capacity - 1}
    return sorted(q for q in probes if 1 <= q < capacity)


def audit_truthfulness(
    instance: Instance,
    mechanism: str,
    dims=("valuation",),
    seed: int | None = 0,
    demand_cap: int | None = None,
) -> AuditReport:
    """Search for profitable unilateral misreports under a frozen coin draw.

    Every deviation is replayed with the same seed, so a randomized
    mechanism faces identical flips with and without the lie; reported
    gains are therefore per-realization and replayable. All deviations
    whose utility gain exceeds ``GAIN_TOL`` are reported.
    """
    dims = tuple(dims)
    for d in dims:
        if d not in ("valuation", "capacity"):
            raise ValueError(f"unknown audit dimension {d!r}")
    if not dims:
        raise ValueError("need at least one audit dimension")
    if "capacity" in dims and instance.is_unit_capacity:
        raise ValueError("capacity audits need a capacitated instance")
    mech = _resolve_for(instance, mechanism, demand_cap)
    truth, outcome_of = _deviation_evaluator(instance, mech, seed)
    truth_run = truth()
    tested = 0
    violations = []
    for pos, bid in enumerate(instance.bids):
        base_utility = seller_utility(truth_run.outcome, pos, bid.valuation)
        deviations = []
        if "valuation" in dims:
            deviations.extend((v, bid.capacity) for v in _valuation_grid(instance, pos, truth_run))
        if "capacity" in dims:
            deviations.extend((bid.valuation, q) for q in _capacity_grid(bid.capacity))
        for dev_v, dev_q in deviations:
            tested += 1
            gain = seller_utility(outcome_of(pos, dev_v, dev_q), pos, bid.valuation) - base_utility
            if gain > GAIN_TOL:
                dim = "capacity" if dev_q != bid.capacity else "valuation"
                violations.append(
                    AuditViolation(
                        bidder=bid.id,
                        dim=dim,
                        true_bid=ReportedBid(bid.valuation, bid.capacity),
                        deviating_bid=ReportedBid(dev_v, dev_q),
                        gain=gain,
                    )
                )
    return AuditReport(mechanism=mechanism, deviations_tested=tested, violations=tuple(violations))


def audit_allocation_monotonicity(
    instance: Instance,
    mechanism: str,
    grid: int = 64,
    seed: int = 0,
    demand_cap: int | None = None,
) -> AuditReport:
    """Sweep each bidder's valuation and flag any allocation increase.

    A sane procurement rule allocates weakly less as a seller asks for
    more. The sweep spans [0, 2 * max bid] on a fixed coin draw, capped
    where its points would overflow; a violation records the two
    valuations and the allocation jump.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    _, outcome_of = _deviation_evaluator(instance, _resolve_for(instance, mechanism, demand_cap), seed)
    top = min(2.0 * max(b.valuation for b in instance.bids), sys.float_info.max / grid) or 1.0
    values = [top * k / (grid - 1) for k in range(grid)]
    tested = 0
    violations = []
    for pos, bid in enumerate(instance.bids):
        prev_v = None
        prev_x = None
        for v in values:
            tested += 1
            x = outcome_of(pos, v, bid.capacity).allocation[pos]
            if prev_x is not None and x > prev_x:
                violations.append(
                    AuditViolation(
                        bidder=bid.id,
                        dim="valuation",
                        true_bid=ReportedBid(prev_v, bid.capacity),
                        deviating_bid=ReportedBid(v, bid.capacity),
                        gain=float(x - prev_x),
                    )
                )
            prev_v, prev_x = v, x
    return AuditReport(mechanism=mechanism, deviations_tested=tested, violations=tuple(violations))


# --- instance families ----------------------------------------------------------


def _family_example1(r: float = 10.0, eps: float = 1.0, n: int = 4) -> Instance:
    """One nearly-free bid, one just under the margin, the rest at the margin.

    The unconstrained single-price optimum lives on the lone cheap bid, so
    forcing a second winner collapses the profit to 2*eps.
    """
    if n < 2:
        raise ValueError("example1 needs n >= 2")
    if not 0 < eps < r:
        raise ValueError("example1 needs 0 < eps < r")
    return make_instance([eps, r - eps] + [r] * (n - 2), curve=linear_curve(r))


def _family_tightness(l: float = 10.0, eps: float = 1.0, n: int = 4) -> Instance:
    """Two winnable bids under a steep linear curve, everyone else priced out.

    The sentinel bids sit at 100*l, high enough that no extraction offer
    under the linear curve can ever reach them.
    """
    if n < 2:
        raise ValueError("tightness needs n >= 2")
    if not 0 < eps < l:
        raise ValueError("tightness needs 0 < eps < l")
    return make_instance([l - eps, l] + [100.0 * l] * (n - 2), curve=linear_curve(2.0 * l))


LOWBALL_DECOY_FRACTION = 0.96


def _family_lowball(r: float = 10.0, L: float = 9.0) -> Instance:
    """A lone low bid L approaching the margin r, plus a fixed decoy at 0.96*r.

    With only the bids L and r, every partition leaves one side worth
    nothing, so the split auction earns exactly 0 and the comparison
    against the unconstrained optimum degenerates. The decoy keeps the
    benchmark bounded away from zero while the mechanism's expectation
    still collapses linearly in (r - L), making the starvation visible as
    a finite, strictly shrinking ratio.
    """
    if not 0 < L < r:
        raise ValueError("lowball needs 0 < L < r")
    return make_instance([L, LOWBALL_DECOY_FRACTION * r, r], curve=linear_curve(r))


def _family_kth_price_demo() -> Instance:
    """Four capacitated sellers under a demand-capped market; the canonical
    input on which a Kth-price auction rewards a capacity underreport."""
    return make_instance(
        [6.0, 8.0, 10.0, 12.0],
        capacities=[100, 100, 200, 100],
        curve=capped_curve(15.0, 200),
    )


def _family_uniform_random(
    n: int,
    seed: int = 0,
    qmin: int = 1,
    qmax: int = 1,
    vmax: float = 1.0,
    curve: str = "linear",
    r: float = 1.0,
) -> Instance:
    """Seeded random instance: valuations U(0, vmax), capacities U{qmin..qmax},
    and a revenue curve drawn from the requested kind ('mixed' picks one)."""
    if n < 1:
        raise ValueError("uniform-random needs n >= 1")
    if not 1 <= qmin <= qmax:
        raise ValueError("uniform-random needs 1 <= qmin <= qmax")
    if vmax <= 0 or r <= 0:
        raise ValueError("uniform-random needs vmax > 0 and r > 0")
    rng = random.Random(seed)
    caps = [rng.randint(qmin, qmax) for _ in range(n)]
    vals = [rng.uniform(0.0, vmax) for _ in range(n)]
    m = sum(caps)
    kind = curve
    if kind == "mixed":
        kind = rng.choice(("linear", "capped", "pwl"))
    if kind == "linear":
        c = linear_curve(r)
    elif kind == "capped":
        c = capped_curve(r, rng.randint(1, m))
    elif kind == "pwl":
        segments = rng.randint(2, 4)
        marginals = sorted((rng.uniform(0.0, r) for _ in range(segments)), reverse=True)
        points = []
        q_acc, rev_acc = 0, 0.0
        for marginal in marginals:
            length = rng.randint(1, max(1, m // segments))
            q_acc += length
            rev_acc += marginal * length
            points.append((q_acc, rev_acc))
        c = pwl_curve(points)
    else:
        raise ValueError(f"unknown curve kind {curve!r} for uniform-random")
    return make_instance(vals, capacities=caps, curve=c)


_FAMILIES = {
    "example1": _family_example1,
    "tightness": _family_tightness,
    "lowball": _family_lowball,
    "kth-price-demo": _family_kth_price_demo,
    "uniform-random": _family_uniform_random,
}


def generate(family: str, params: dict | None = None) -> Instance:
    """Build a named instance family; deterministic for fixed parameters."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    params = dict(params or {})
    try:
        return _FAMILIES[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc
