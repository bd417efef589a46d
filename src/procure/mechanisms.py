"""Auction mechanisms: the random-split extraction auctions (pepa, pepac),
a generic two-phase bid-independent engine, and a Kth-price comparator.

The random-split auctions flip one fair coin per bidder to cut the bid
vector into sides b' and b'', compute each side's single-price optimum, and
try to extract each side's optimum from the other side; the sub-auction with
the higher buyer profit runs for real. Coins come from a seeded generator
with a fixed stream order, so a run is a pure function of (instance, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .benchmarks import scan_single_price
from .extraction import run_extraction
from .model import EPS, AuctionOutcome, Bid, Instance, RevenueCurve, leq, make_outcome

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def partition_mask(n: int, seed: int) -> int:
    """The n fair coin bits for a run seed, as a bitmask.

    Bits come from a SplitMix64 stream: the seed (folded into 64 bits word
    by word if wider) is stepped by the golden-ratio increment and mixed;
    bit i is the coin for the bidder with the i-th smallest id. Cheap to
    reseed, so per-trial streams in the Monte Carlo loop stay independent
    and individually replayable.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    state = seed & _M64
    hi = seed >> 64
    while hi:
        state = _mix64(state ^ (hi & _M64))
        hi >>= 64
    out = 0
    produced = 0
    while produced < n:
        state = (state + _GAMMA) & _M64
        out |= _mix64(state) << produced
        produced += 64
    return out & ((1 << n) - 1)


class UnknownMechanismError(ValueError):
    """Raised when a mechanism name string cannot be resolved."""


class UndefinedPriceError(ValueError):
    """Kth-price auction with no losing bidder: the clearing price does not exist."""


@dataclass(frozen=True)
class PartitionDraw:
    """One fair-coin flip per bidder; True puts the bidder on side b'.

    ``flips`` is aligned to the instance's bid order. Draws are reproducible:
    the coin for the bidder with the i-th smallest id is bit i of
    :func:`partition_mask`.
    """

    flips: tuple[bool, ...]
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {"flips": list(self.flips), "seed": self.seed}


@dataclass(frozen=True)
class MechanismRun:
    """A single mechanism execution. Partition fields are None for
    mechanisms that do not split the bidders."""

    outcome: AuctionOutcome
    partition: PartitionDraw | None = None
    f_prime: float | None = None
    f_double_prime: float | None = None
    chosen_side: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.to_json_dict(),
            "partition": self.partition.to_json_dict() if self.partition else None,
            "f_prime": self.f_prime,
            "f_double_prime": self.f_double_prime,
            "chosen_side": self.chosen_side,
        }


def draw_partition(instance: Instance, seed: int) -> PartitionDraw:
    bits = partition_mask(instance.n, seed)
    by_id = sorted(range(instance.n), key=lambda pos: instance.bids[pos].id)
    flips = [False] * instance.n
    for rank, pos in enumerate(by_id):
        flips[pos] = bool((bits >> rank) & 1)
    return PartitionDraw(flips=tuple(flips), seed=seed)


def _side_single_price_profit(side, rtable) -> float:
    best = 0.0
    u = 0
    for b in side:
        v = b.valuation
        for _ in range(b.capacity):
            u += 1
            p = rtable[u] - u * v
            if p > best:
                best = p
    return best


def _run_partitioned(instance: Instance, partition: PartitionDraw) -> MechanismRun:
    rtable = instance.revenue_table
    flips = partition.flips
    pos_of = instance.position_of
    side_a = []  # b'
    side_b = []  # b''
    for bid in instance.sorted_bids:
        (side_a if flips[pos_of(bid.id)] else side_b).append(bid)
    f_prime = _side_single_price_profit(side_a, rtable)
    f_double = _side_single_price_profit(side_b, rtable)
    res_a = run_extraction(side_a, rtable, f_double)
    res_b = run_extraction(side_b, rtable, f_prime)
    if res_a.profit >= res_b.profit:
        chosen, side_name = res_a, "b_prime"
    else:
        chosen, side_name = res_b, "b_double_prime"
    alloc = [0] * instance.n
    pays = [0.0] * instance.n
    for sid, units in chosen.winners:
        alloc[pos_of(sid)] = units
        pays[pos_of(sid)] = chosen.price_per_unit
    outcome = make_outcome(instance, alloc, pays, profit=chosen.profit)
    return MechanismRun(
        outcome=outcome,
        partition=partition,
        f_prime=f_prime,
        f_double_prime=f_double,
        chosen_side=side_name,
    )


def _resolve_partition(instance, seed, partition) -> PartitionDraw:
    if (seed is None) == (partition is None):
        raise ValueError("provide exactly one of seed or partition")
    if partition is None:
        return draw_partition(instance, seed)
    if len(partition.flips) != instance.n:
        raise ValueError("partition flips length must match the number of bids")
    return partition


def run_pepac(instance: Instance, seed: int | None = None, partition: PartitionDraw | None = None) -> MechanismRun:
    """Random-split extraction auction for capacitated sellers."""
    return _run_partitioned(instance, _resolve_partition(instance, seed, partition))


def run_pepa(instance: Instance, seed: int | None = None, partition: PartitionDraw | None = None) -> MechanismRun:
    """Random-split extraction auction for unit-capacity sellers.

    Identical to :func:`run_pepac` on the same seed; the unit-capacity
    precondition is checked so capacitated data cannot be run silently.
    """
    if not instance.is_unit_capacity:
        raise ValueError("pepa requires unit capacities; use pepac")
    return _run_partitioned(instance, _resolve_partition(instance, seed, partition))


def partition_profit_engine(instance: Instance) -> Callable[[int], float]:
    """Profit-only fast path for the random-split auctions.

    Returns a closure mapping a partition bitmask to the buyer's profit,
    where bit i (for the bidder with the i-th smallest id) set means side
    b'. Used by the Monte Carlo estimator; agreement with :func:`run_pepac`
    is covered by tests.
    """
    rtable = instance.revenue_table
    by_id_rank = sorted(range(instance.n), key=lambda pos: instance.bids[pos].id)
    rank_of_pos = {pos: rank for rank, pos in enumerate(by_id_rank)}
    sorted_items = [
        (b.valuation, b.capacity, rank_of_pos[instance.position_of(b.id)])
        for b in instance.sorted_bids
    ]
    tol = EPS

    def profit_for_mask(mask: int) -> float:
        side_a = []
        side_b = []
        for item in sorted_items:
            (side_a if (mask >> item[2]) & 1 else side_b).append(item)
        best_a = 0.0
        u = 0
        for v, q, _ in side_a:
            for _ in range(q):
                u += 1
                p = rtable[u] - u * v
                if p > best_a:
                    best_a = p
        best_b = 0.0
        u = 0
        for v, q, _ in side_b:
            for _ in range(q):
                u += 1
                p = rtable[u] - u * v
                if p > best_b:
                    best_b = p
        # extraction of best_b from side a: largest qualifying unit count
        profit_a = 0.0
        u = sum(q for _, q, _ in side_a)
        for v, q, _ in reversed(side_a):
            hit = False
            for _ in range(q):
                if v <= (rtable[u] - best_b) / u + tol:
                    profit_a = best_b
                    hit = True
                    break
                u -= 1
            if hit:
                break
        profit_b = 0.0
        u = sum(q for _, q, _ in side_b)
        for v, q, _ in reversed(side_b):
            hit = False
            for _ in range(q):
                if v <= (rtable[u] - best_a) / u + tol:
                    profit_b = best_a
                    hit = True
                    break
                u -= 1
            if hit:
                break
        return profit_a if profit_a >= profit_b else profit_b

    return profit_for_mask


# --- generic bid-independent engine ------------------------------------------

ThresholdFunction = Callable[[tuple[Bid, ...], RevenueCurve], float]


def run_bid_independent(instance: Instance, f: ThresholdFunction) -> AuctionOutcome:
    """Two-phase auction driven by a threshold function of the other bids.

    Phase I offers each bidder the threshold computed from the masked bid
    vector and drops bidders asking more than their threshold. Phase II
    fills units in ascending threshold order (marginal seller possibly
    partial) at the unit count maximizing revenue minus threshold payments,
    and pays each winner their threshold per unit.
    """
    thresholds = []
    for i in range(instance.n):
        masked = instance.bids[:i] + instance.bids[i + 1:]
        thresholds.append(float(f(masked, instance.curve)))
    survivors = [
        (thresholds[pos], instance.bids[pos].id, pos, instance.bids[pos].capacity)
        for pos in range(instance.n)
        if leq(instance.bids[pos].valuation, thresholds[pos])
    ]
    survivors.sort(key=lambda s: (s[0], s[1]))
    rtable = instance.revenue_table
    best_profit, best_units = 0.0, 0
    u = 0
    cost = 0.0
    for t, _, _, q in survivors:
        for _ in range(q):
            u += 1
            cost += t
            profit = rtable[u] - cost
            if profit > best_profit:
                best_profit, best_units = profit, u
    alloc = [0] * instance.n
    pays = [0.0] * instance.n
    remaining = best_units
    for t, _, pos, q in survivors:
        if remaining == 0:
            break
        take = min(q, remaining)
        alloc[pos] = take
        pays[pos] = t
        remaining -= take
    return make_outcome(instance, alloc, pays)


def threshold_zero(masked, curve) -> float:
    return 0.0


def make_threshold_posted(price: float) -> ThresholdFunction:
    def posted(masked, curve) -> float:
        return price

    return posted


def threshold_masked_opp(masked, curve) -> float:
    """The optimal single-price of the masked vector, as a payment offer."""
    pairs = sorted((b.valuation, b.capacity) for b in masked)
    total = sum(q for _, q in pairs)
    if total == 0:
        return 0.0
    rtable = curve.table(total)
    _, _, _, price = scan_single_price(pairs, rtable)
    return price


# --- Kth-price comparator -----------------------------------------------------


def run_kth_price(instance: Instance, demand_cap: int) -> AuctionOutcome:
    """Fill units cheapest-first up to the demand cap; pay every winner the
    first losing seller's valuation per unit.

    Truthful in valuations but manipulable through capacity underreports,
    which is what the audits are meant to catch. Raises
    :class:`UndefinedPriceError` when nobody is left out.
    """
    if demand_cap < 0:
        raise ValueError(f"demand cap must be >= 0, got {demand_cap}")
    alloc = [0] * instance.n
    pays = [0.0] * instance.n
    remaining = demand_cap
    first_loser_price = None
    winner_positions = []
    for b in instance.sorted_bids:
        pos = instance.position_of(b.id)
        take = min(b.capacity, remaining)
        remaining -= take
        if take > 0:
            alloc[pos] = take
            winner_positions.append(pos)
        if take == 0 and first_loser_price is None:
            first_loser_price = b.valuation
    if winner_positions:
        if first_loser_price is None:
            raise UndefinedPriceError("every bidder won; the first losing valuation does not exist")
        for pos in winner_positions:
            pays[pos] = first_loser_price
    return make_outcome(instance, alloc, pays)


# --- mechanism registry --------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """A named, runnable mechanism with a uniform (instance, seed) interface."""

    name: str
    randomized: bool
    runner: Callable[[Instance, int | None], MechanismRun]

    def run(self, instance: Instance, seed: int | None = None) -> MechanismRun:
        return self.runner(instance, seed)


def _wrap_deterministic(fn):
    def runner(instance, seed=None):
        return MechanismRun(outcome=fn(instance))

    return runner


def resolve_mechanism(name: str, demand_cap: int | None = None) -> Mechanism:
    """Map a mechanism name string to a runnable mechanism.

    Names: ``pepa``, ``pepac``, ``kth-price`` (needs a demand cap), and
    ``bid-independent:<f>`` with f one of ``zero``, ``posted=<price>``,
    ``opp``.
    """
    if name == "pepa":
        return Mechanism(name, True, lambda inst, seed=None: run_pepa(inst, seed=seed))
    if name == "pepac":
        return Mechanism(name, True, lambda inst, seed=None: run_pepac(inst, seed=seed))
    if name == "kth-price":
        if demand_cap is None:
            raise ValueError("kth-price requires a demand cap")
        return Mechanism(name, False, _wrap_deterministic(lambda inst: run_kth_price(inst, demand_cap)))
    if name.startswith("bid-independent:"):
        spec = name.split(":", 1)[1]
        if spec == "zero":
            f = threshold_zero
        elif spec == "opp":
            f = threshold_masked_opp
        elif spec.startswith("posted="):
            try:
                f = make_threshold_posted(float(spec.split("=", 1)[1]))
            except ValueError as exc:
                raise UnknownMechanismError(f"bad posted price in {name!r}") from exc
        else:
            raise UnknownMechanismError(f"unknown threshold function {spec!r}")
        return Mechanism(name, False, _wrap_deterministic(lambda inst: run_bid_independent(inst, f)))
    raise UnknownMechanismError(f"unknown mechanism {name!r}")
