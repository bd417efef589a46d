"""Auction mechanisms: the random-split extraction auctions (pepa, pepac),
a generic two-phase bid-independent engine, and a Kth-price comparator.

The random-split auctions flip one fair coin per bidder to cut the bid
vector into sides b' and b'', compute each side's single-price optimum, and
try to extract each side's optimum from the other side; the sub-auction with
the higher buyer profit runs for real. Coins come from a seeded generator
with a fixed stream order, so a run is a pure function of (instance, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .benchmarks import block_optimum, block_parts, scan_pay_as_bid, scan_single_price
from .extraction import run_extraction
from .model import EPS, AuctionOutcome, Bid, Instance, RevenueCurve, leq, make_outcome, piece_revenue

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def partition_masks(n: int, seeds: Iterable[int]) -> Iterator[int]:
    """The n fair coin bits for each run seed in ``seeds``, as bitmasks.

    This is the one coin stream: every draw, a single run's
    (:func:`partition_mask`) or a Monte Carlo trial's, takes its bits from
    it. Each seed starts a SplitMix64 stream: the seed (folded into 64 bits
    word by word with :func:`_mix64` if wider) is stepped by the
    golden-ratio increment and mixed; bit i is the coin for the bidder with
    the i-th smallest id. Cheap to reseed, so per-trial streams stay
    independent and individually replayable. The mixer is inlined in the
    per-word loop, which is the Monte Carlo loop's per-trial cost; it is
    :func:`_mix64` step for step. A negative seed raises ``ValueError``
    when its mask is due.
    """
    keep = (1 << n) - 1
    shifts = range(0, n, 64)
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        state = seed & _M64
        hi = seed >> 64
        while hi:
            state = _mix64(state ^ (hi & _M64))
            hi >>= 64
        out = 0
        for shift in shifts:
            state = (state + _GAMMA) & _M64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            out |= (z ^ (z >> 31)) << shift
        yield out & keep


def partition_mask(n: int, seed: int) -> int:
    """The n fair coin bits for a run seed, as a bitmask: the mask
    :func:`partition_masks` yields for that seed."""
    [mask] = partition_masks(n, (seed,))
    return mask


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


def _coin_bit_of(instance: Instance) -> dict[int, int]:
    """Seller id -> the index of its coin in a draw's mask: bit i is the
    coin for the bidder with the i-th smallest id."""
    return {sid: i for i, sid in enumerate(sorted(b.id for b in instance.bids))}


def _draw_of_mask(instance: Instance, mask: int, seed: int | None = None) -> PartitionDraw:
    """The draw whose coins are the bits of ``mask``, aligned to the bid order."""
    bit_of = _coin_bit_of(instance)
    return PartitionDraw(flips=tuple(bool(mask >> bit_of[b.id] & 1) for b in instance.bids), seed=seed)


def draw_partition(instance: Instance, seed: int) -> PartitionDraw:
    return _draw_of_mask(instance, partition_mask(instance.n, seed), seed)


def _run_partitioned(instance: Instance, partition: PartitionDraw) -> MechanismRun:
    """The split auction on a draw: extract f'' from b' and f' from b'', and
    keep the sub-auction with the higher buyer profit, b' on a tie."""
    pieces = instance.curve.pieces
    flips = partition.flips
    pos_of = instance.position_of
    side_a = []  # b'
    side_b = []  # b''
    for bid in instance.sorted_bids:
        (side_a if flips[pos_of(bid.id)] else side_b).append(bid)
    f_prime = scan_single_price([(b.valuation, b.capacity) for b in side_a], pieces)[0]
    f_double = scan_single_price([(b.valuation, b.capacity) for b in side_b], pieces)[0]
    res_a = run_extraction(side_a, pieces, f_double)
    res_b = run_extraction(side_b, pieces, f_prime)
    chosen, side_name = (res_a, "b_prime") if res_a.profit >= res_b.profit else (res_b, "b_double_prime")
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


def require_unit_capacity(instance: Instance) -> None:
    """pepa's precondition: capacitated data must not run silently."""
    if not instance.is_unit_capacity:
        raise ValueError("pepa requires unit capacities; use pepac")


def run_pepa(instance: Instance, seed: int | None = None, partition: PartitionDraw | None = None) -> MechanismRun:
    """Random-split extraction auction for unit-capacity sellers.

    Identical to :func:`run_pepac` on the same seed once
    :func:`require_unit_capacity` holds.
    """
    require_unit_capacity(instance)
    return _run_partitioned(instance, _resolve_partition(instance, seed, partition))


def side_optima_by_mask(instance: Instance) -> Callable[[int], tuple[float, float]]:
    """The per-draw walk of the random-split auctions: a closure mapping a
    coin mask to the two sides' single-price optima (f', f'').

    Bit i of the mask set (for the bidder with the i-th smallest id) puts
    that bidder on side b', as in :func:`_draw_of_mask`. Both
    :func:`partition_profit_engine` and exact enumeration
    (``simulation._min_side_by_enumeration``) take their side optima from
    it, and on every draw they are the floats :func:`run_pepac` computes.
    Threshold counting (``simulation._side_thresholds``) tabulates the same
    g(j, c) below with the same kernel call, for every c at once.

    A draw costs O(n). The sellers are walked cheapest first, and each
    side's optimum is the largest of 0 and the block optima g(j, c_j) of its
    members (the profit of :func:`block_optimum`, c_j the units the side
    holds before seller j), compared with the same strict ``>`` as
    :func:`scan_single_price`, so it is the float that scan returns for that
    side. Each g(j, c) is computed on first use and kept in seller j's dict,
    keyed by c. Seller j's dict has at most one entry per unit count that
    its cheaper sellers can hold, so the memo never exceeds
    sum_j (before_j + 1) entries, before_j the supply of the sellers cheaper
    than j, nor n per draw evaluated.

    The walk ends early, once neither side can grow. After seller j, it
    stops when both optima so far are at least the ceiling

        ceiling_j = max over j' > j of block_optimum(pieces, v_j', m, 0),

    m the total supply (-inf after the last seller). This is exact: every
    later g(j', c) is the first maximum of ``R(u) - u * v_j'`` over
    counts c+1..c+q_j' inside 1..m, and the kernel returns the per-unit
    walk's float bit for bit, so g(j', c) <= ceiling_j; an optimum changes
    only on a strict ``>``, so no later member can change either side. The
    ceilings cost n kernel calls, once per closure.
    """
    pieces = instance.curve.pieces
    m = instance.total_supply
    bit_of = _coin_bit_of(instance)
    sellers = []
    ceiling = -math.inf
    for b in reversed(instance.sorted_bids):
        sellers.append((1 << bit_of[b.id], b.capacity, b.valuation, {}, ceiling))
        ceiling = max(ceiling, block_optimum(pieces, b.valuation, m, 0)[0])
    sellers.reverse()

    def side_optima(mask: int) -> tuple[float, float]:
        ca = cb = 0
        fa = fb = 0.0
        for bit, q, v, memo, ceiling in sellers:
            if mask & bit:
                try:
                    g = memo[ca]
                except KeyError:
                    g = memo[ca] = block_optimum(pieces, v, q, ca)[0]
                if g > fa:
                    fa = g
                ca += q
            else:
                try:
                    g = memo[cb]
                except KeyError:
                    g = memo[cb] = block_optimum(pieces, v, q, cb)[0]
                if g > fb:
                    fb = g
                cb += q
            if fa >= ceiling and fb >= ceiling:
                break
        return fa, fb

    return side_optima


def partition_profit_engine(instance: Instance) -> Callable[[int], float]:
    """Profit-only fast path for the random-split auctions.

    Returns a closure mapping a partition bitmask to the buyer's profit,
    with the mask bits of :func:`side_optima_by_mask`. Used by the Monte
    Carlo estimator; on every draw it returns the same float as
    :func:`run_pepac`. It is that walk, which gives (f', f'') in O(n) per
    draw, plus the tie band below, inside which it runs the auction.

    The auction extracts each side's optimum from the other side and keeps
    the better sub-auction. Outside a band around a tie this earns exactly
    min(f', f''): if |f' - f''| > ``band`` with

        band = 2 m EPS + 2^-40 (R* + m V),

    m the total supply, R* the largest R(u) over 1..m and V the largest
    valuation, the larger side trades at the smaller optimum and the
    smaller side cannot extract the larger one. R is non-decreasing on each
    affine piece, so R* is the largest R at a piece's last count, clipped
    to m. Proof for f' - f'' > band (the other
    case is symmetric), with e = 2^-53 the rounding unit; revenues,
    valuations and targets are non-negative, R(u) <= R*, v <= V and
    u <= m:

    - A computed profit fl(R(u) - fl(u v)) lies within e (R* + 2 m V) of
      R(u) - u v. A computed price fl(fl(R(u) - P) / u) lies within
      2 e R* / u of (R(u) - P) / u for a target 0 <= P <= R*.
    - Extracting f'' from b' trades: at the unit count u where b' attains
      f', the exact price (R(u) - f'') / u exceeds v by more than
      (band - e (R* + 2 m V)) / u > 2 e R* / u, so the computed price is
      at least v even before EPS is added.
    - Extracting f' from b'' does not: every computed profit of b'' is at
      most f'', so at each of its unit counts the computed price plus EPS
      lies below v by more than (band - m EPS - e (3 R* + 2 m V)) / u,
      which exceeds the e V that the final rounding of that sum can add.
    - fl(f' - f'') > fl(band) implies f' - f'' > band (1 - 4e), and the
      slack in both terms of the band covers that loss.

    Inside the band the engine runs the auction itself: the profit of
    :func:`run_pepac` on the draw of that mask. So the engine returns
    :func:`run_pepac`'s float on every draw by construction, the band only
    deciding which draws may skip the run.
    """
    side_optima = side_optima_by_mask(instance)
    m = instance.total_supply
    top = max(piece_revenue(piece, hi) for _, hi, piece in block_parts(instance.curve.pieces, 1, m))
    band = 2 * m * EPS + 2.0**-40 * (top + m * instance.sorted_bids[-1].valuation)

    def profit_for_mask(mask: int) -> float:
        fa, fb = side_optima(mask)
        if fa - fb > band:
            return fb
        if fb - fa > band:
            return fa
        return _run_partitioned(instance, _draw_of_mask(instance, mask)).outcome.profit

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
    _, best_units, _ = scan_pay_as_bid([(t, q) for t, _, _, q in survivors], instance.curve.pieces)
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
    _, _, _, price = scan_single_price(pairs, curve.pieces)
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
    ``opp``. A posted price that is not a finite number >= 0 raises
    :class:`UnknownMechanismError` naming it.
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
            raw = spec.split("=", 1)[1]
            try:
                price = float(raw)
            except ValueError as exc:
                raise UnknownMechanismError(f"bad posted price in {name!r}") from exc
            if not (math.isfinite(price) and price >= 0):
                raise UnknownMechanismError(f"bad posted price in {name!r}: {raw} is not a finite price >= 0")
            f = make_threshold_posted(price)
        else:
            raise UnknownMechanismError(f"unknown threshold function {spec!r}")
        return Mechanism(name, False, _wrap_deterministic(lambda inst: run_bid_independent(inst, f)))
    raise UnknownMechanismError(f"unknown mechanism {name!r}")
