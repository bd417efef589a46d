"""Auction mechanisms: the random-split extraction auctions (pepa, pepac),
a generic two-phase bid-independent engine, and a Kth-price comparator.

The random-split auctions flip one fair coin per bidder to cut the bid
vector into sides b' and b'', compute each side's single-price optimum, and
try to extract each side's optimum from the other side; the sub-auction with
the higher buyer profit runs for real. Coins come from a seeded generator
with a fixed stream order, so a run is a pure function of (instance, seed).
One draw, given as its coin mask, has one implementation of that core,
:func:`split_auction`: ``run_pepa``/``run_pepac`` and the audits'
deviations settle through it. The Monte Carlo engine's in-band fallback
shares its split (:func:`_split`) and its tail (:func:`_settle`), with the
side optima and band the engine already holds.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import insort
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .benchmarks import block_optimum, block_parts, scan_pay_as_bid, scan_single_price
from .extraction import NO_TRADE, run_extraction
from .model import EPS, AuctionOutcome, Bid, Instance, RevenueCurve, leq, make_outcome, piece_revenue, require_count

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1024  # seeds mixed at once by partition_masks, one per 128-bit lane of an int


def _mix64(z: int, lanes: int = _M64) -> int:
    """SplitMix64's output mixer, on each 64-bit value packed in ``z``.

    ``lanes`` masks the low 64 bits of every lane. On one value it is
    ``_M64``, and the masks change nothing. On values packed 128 bits
    apart, every step is masked back to the lanes' low halves: the bits a
    right shift brings down from the next lane are cleared before each
    multiply, and a value below 2^64 times a 64-bit constant stays below
    2^128, inside its own lane.
    """
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    return (z ^ (z >> 31)) & lanes


def require_seed(seed) -> None:
    """A run seed must be a non-negative int, not a bool: anything else
    raises ``ValueError`` naming it."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _seed_state(seed: int) -> int:
    """A run seed's 64-bit SplitMix64 state: the seed itself below 2^64, a
    wider seed folded in word by word with :func:`_mix64`. A seed that
    :func:`require_seed` rejects raises its ``ValueError``."""
    require_seed(seed)
    state = seed & _M64
    hi = seed >> 64
    while hi:
        state = _mix64(state ^ (hi & _M64))
        hi >>= 64
    return state


def partition_masks(n: int, seeds: Iterable[int]) -> Iterator[int]:
    """The n fair coin bits of each run seed in ``seeds``, as bitmasks, in
    order: the one coin stream of the random-split auctions.

    Each seed's SplitMix64 stream (:func:`_seed_state`) is stepped by the
    golden-ratio increment and mixed once per 64 coins; bit i is the coin
    for bidder i, the bid at position i. Cheap to reseed, so per-trial
    streams stay independent and individually replayable.

    It takes up to ``_LANES`` seeds at a time and packs their states into
    one int, one per 128-bit lane, so that each 64 coins of all of them
    cost one stepping add and one :func:`_mix64` on that int. The masks
    are read back through ``to_bytes`` and an ``array("Q")``. A seed that
    is negative or not an int raises ``ValueError`` (:func:`require_seed`)
    when its batch of seeds is due, but the fast path reads a bool as 0 or
    1: a caller's seed is checked once where it enters (:func:`run_pepac`,
    the audits, ``simulation.estimate_ratio``), not once per trial here.
    """
    keep = (1 << n) - 1
    shifts = range(0, max(n, 1), 64)
    seeds = iter(seeds)
    while batch := list(islice(seeds, _LANES)):
        try:
            states = array("Q", batch)
        except (OverflowError, TypeError):  # a seed past 2^64 or not a 64-bit int
            states = array("Q", map(_seed_state, batch))
        size = 16 * len(states)
        packed = array("Q", bytes(size))
        packed[::2] = states
        z = int.from_bytes(packed, sys.byteorder)
        ones = int.from_bytes(array("Q", (1, 0)) * len(states), sys.byteorder)
        lanes, gammas = ones * _M64, ones * _GAMMA
        for shift in shifts:
            z = (z + gammas) & lanes
            word = _mix64(z, lanes) & ones * (keep >> shift & _M64)  # bits past n cleared in every lane
            words = array("Q", word.to_bytes(size, sys.byteorder))[::2]  # each lane's low half
            masks = [a | b << shift for a, b in zip(masks, words)] if shift else words
        yield from masks


class UnknownMechanismError(ValueError):
    """Raised when a mechanism name string cannot be resolved."""


class UndefinedPriceError(ValueError):
    """Kth-price auction with no losing bidder: the clearing price does not exist."""


@dataclass(frozen=True)
class PartitionDraw:
    """One fair-coin flip per bidder; True puts the bidder on side b'.

    ``flips`` is aligned to the instance's bid order. Draws are reproducible:
    ``flips[i]``, the coin of bidder i, is bit i of the seed's mask from
    :func:`partition_masks`.
    """

    flips: tuple[bool, ...]
    seed: int | None = None


@dataclass(frozen=True)
class MechanismRun:
    """A single mechanism execution. Partition fields are None for
    mechanisms that do not split the bidders."""

    outcome: AuctionOutcome
    partition: PartitionDraw | None = None
    f_prime: float | None = None
    f_double_prime: float | None = None
    chosen_side: str | None = None


def _side_optimum(side, pieces) -> float:
    """A side's single-price optimum, f' or f'': the scan's profit."""
    return scan_single_price([(b.valuation, b.capacity) for b in side], pieces)[0]


def tie_band(pieces, m: int) -> Callable[[float], float]:
    """The tie band of the split auction on a curve with affine ``pieces``,
    as a function of V: ``band(V)`` is

        band = 2 m EPS + 2^-40 (R* + m V),

    with R* the largest R(u) over 1..m. R is non-decreasing on each affine
    piece, so R* is the largest R at a piece's last count, clipped to m;
    it is computed here once, and ``band(V)`` is a few float operations.

    Outside the band around a tie, the split auction earns exactly
    min(f', f''): on any draw of an instance whose total supply is at most
    m and whose asks are at most V, if f' - f'' > band(V), extracting f''
    from b' trades at the smaller optimum and extracting f' from b'' does
    not trade. The case f'' - f' > band is symmetric. The proof below only
    needs u <= m, R(u) <= R* and v <= V, so a band computed with a larger
    m or V is sound too; a computed R does not decrease along a piece, so
    R* over 1..m bounds R over any shorter range. Proof for
    f' - f'' > band, with e = 2^-53 the rounding unit; revenues,
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

    :func:`partition_profit_engine` uses it to skip the whole auction on
    such a draw, and :func:`_settle` to skip the extraction that cannot
    trade.
    """
    top = max(piece_revenue(piece, hi) for _, hi, piece in block_parts(pieces, 1, m))
    return lambda valuation: 2 * m * EPS + 2.0**-40 * (top + m * valuation)


def _settle(instance: Instance, sides, optima, memos, band: float) -> tuple[AuctionOutcome, str]:
    """The split auction's tail, on sides (b', b'') in (valuation, id)
    order with optima (f', f''): extract f'' from b' and f' from b'', keep
    the sub-auction with the higher buyer profit, b' on a tie, and build
    its outcome. Returns the outcome and the chosen side's name.

    ``band`` must be at least the instance's :func:`tie_band`. If
    f' - f'' > band, b'' cannot extract f', and that extraction is not run
    but read as ``NO_TRADE``, the result it would return; if
    f'' - f' > band, the extraction of f'' from b' is skipped the same
    way. Inside the band both sides extract. Each extraction that runs is
    read from its side's dict in ``memos``, keyed by the target's
    ``float.hex``, so +0.0 and -0.0 never share an entry; a side's bids
    must be the same on every call with its dict.
    """
    pieces = instance.curve.pieces
    fa, fb = optima
    results = []
    for side, target, memo, cannot in zip(sides, (fb, fa), memos, (fb - fa > band, fa - fb > band)):
        if cannot:
            results.append(NO_TRADE)
            continue
        key = target.hex()
        if key not in memo:
            memo[key] = run_extraction(side, pieces, target)
        results.append(memo[key])
    res_a, res_b = results
    chosen, side_name = (res_a, "b_prime") if res_a.profit >= res_b.profit else (res_b, "b_double_prime")
    units = dict(chosen.winners)  # every winner sells at least one unit
    alloc = [units.get(b.id, 0) for b in instance.bids]
    pays = [chosen.price_per_unit if x else 0.0 for x in alloc]
    return make_outcome(instance, alloc, pays, profit=chosen.profit), side_name


def _split(instance: Instance, mask: int) -> tuple[list[Bid], list[Bid]]:
    """The sides (b', b'') of coin ``mask``, each in (valuation, id) order:
    bit i set puts the bid at position i on b'."""
    sides = ([], [])
    for bid in instance.sorted_bids:
        sides[0 if mask >> bid.id & 1 else 1].append(bid)
    return sides


def split_auction(
    instance: Instance, mask: int, seed: int | None = None
) -> tuple[Callable[[], MechanismRun], Callable[[int, float, int], AuctionOutcome]]:
    """The split auction on one coin draw, as two closures ``(truth, deviate)``.

    Bit i of ``mask`` is bidder i's coin, as :func:`partition_masks` gives
    it; a set bit puts the bid at position i on side b'. The bids are split
    into sides in (valuation, id) order and both sides' optima are scanned
    once, here, as is the draw's :func:`tie_band`. ``truth()`` settles the
    truthful run (:func:`_settle`, which skips the extraction the band
    rules out), reporting the draw with ``seed``; nothing is settled until
    it is called.

    ``deviate(position, v', q')`` is the outcome of the run on
    ``instance.with_bid(position, v', q')`` under the same draw, field for
    field. A deviation keeps the seller's id, so it keeps the seller's coin
    and side. Per deviation it builds and validates the deviating instance
    (:meth:`Instance.with_bid`), puts the one changed bid back into its
    side in order, and scans only that side. The other side's bids and
    optimum are the truthful ones, and its extraction depends only on the
    target, the deviating side's optimum, so it is memoised by target and
    shared with ``truth()``: at most one per distinct target per side.
    A deviation settles with the band at max(V, v'), V the truthful
    largest ask, on the truthful supply if q' <= q and on the deviating
    one otherwise: at least the deviating instance's own band.
    Callers check ``pepa``'s unit-capacity precondition themselves.
    """
    pieces = instance.curve.pieces
    sides = _split(instance, mask)
    optima = tuple(_side_optimum(side, pieces) for side in sides)
    memos = ({}, {})
    band_at, top_ask = tie_band(pieces, instance.total_supply), instance.sorted_bids[-1].valuation
    band = band_at(top_ask)

    def truth() -> MechanismRun:
        outcome, side_name = _settle(instance, sides, optima, memos, band)
        flips = tuple(bool(mask >> i & 1) for i in range(instance.n))
        return MechanismRun(outcome, PartitionDraw(flips, seed), *optima, side_name)

    def deviate(position: int, valuation: float, capacity: int) -> AuctionOutcome:
        deviating = instance.with_bid(position, valuation, capacity)
        bid = deviating.bids[position]
        s = 0 if mask >> position & 1 else 1
        side = [b for b in sides[s] if b.id != bid.id]
        insort(side, bid, key=attrgetter("valuation", "id"))
        dev_sides, dev_optima, dev_memos = list(sides), list(optima), list(memos)
        dev_sides[s], dev_optima[s], dev_memos[s] = side, _side_optimum(side, pieces), {}
        widest = band_at if capacity <= instance.bids[position].capacity else tie_band(pieces, deviating.total_supply)
        return _settle(deviating, dev_sides, dev_optima, dev_memos, widest(max(top_ask, bid.valuation)))[0]

    return truth, deviate


def run_pepac(instance: Instance, seed: int) -> MechanismRun:
    """Random-split extraction auction for capacitated sellers, on the draw
    of ``seed``, a non-negative int (:func:`require_seed`)."""
    require_seed(seed)
    return split_auction(instance, next(partition_masks(instance.n, (seed,))), seed)[0]()


def require_unit_capacity(instance: Instance) -> None:
    """pepa's precondition: capacitated data must not run silently."""
    if not instance.is_unit_capacity:
        raise ValueError("pepa requires unit capacities; use pepac")


def run_pepa(instance: Instance, seed: int) -> MechanismRun:
    """Random-split extraction auction for unit-capacity sellers.

    Identical to :func:`run_pepac` on the same seed once
    :func:`require_unit_capacity` holds.
    """
    require_unit_capacity(instance)
    return run_pepac(instance, seed)


# Sellers whose coins key the walk's table of its state: the cheapest ten.
# Depths 9 to 11 timed the same on Monte Carlo runs of 30 to 42 sellers.
_HEAD = 10


def side_optima_by_mask(instance: Instance) -> Callable[[int], tuple[float, float]]:
    """The per-draw walk of the random-split auctions: a closure mapping a
    coin mask to the two sides' single-price optima (f', f'').

    Bit i of the mask set puts bidder i, the bid at position i, on side b',
    as in :func:`split_auction`. Both :func:`partition_profit_engine` and
    exact enumeration (``simulation._min_side_by_enumeration``) take their
    side optima from it, and on every draw they are the floats
    :func:`run_pepac` computes.
    Threshold counting (``simulation._min_side_by_counting``) computes the
    same g(j, c) below with the same kernel call, for every c in one pass.

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

    After the ``_HEAD`` cheapest sellers, the walk's state depends only on
    their coins: (f', f''), the units (c', c'') each side holds, and the
    sellers still to walk, none if the walk has ended. The closure tabulates
    that state for every pattern of those coins when it is built, keyed by
    the mask's bits of those sellers: one breadth-first pass extends each
    pattern of the cheaper head sellers' coins by the next seller's coin,
    both ways, with the walk's step and its ceiling stop, so the 2^H
    patterns of H = min(``_HEAD``, n) sellers cost 2^(H+1) - 2 steps and at
    most one kernel call per (head seller, count). A draw then reads its
    head's state from the table and walks only the sellers after the head.
    """
    pieces = instance.curve.pieces
    m = instance.total_supply
    sellers = []
    ceiling = -math.inf
    for b in reversed(instance.sorted_bids):
        sellers.append((1 << b.id, b.capacity, b.valuation, {}, ceiling))
        ceiling = max(ceiling, block_optimum(pieces, b.valuation, m, 0)[0])
    sellers.reverse()
    head, tail = sellers[:_HEAD], sellers[_HEAD:]
    states = [(0, 0.0, 0.0, 0, 0)]  # (key, f', f'', c', c'') per coin pattern of the sellers walked so far
    ended = math.inf  # both optima at least this: the walk has ended
    for bit, q, v, memo, ceiling in head:
        grown = []
        for key, fa, fb, ca, cb in states:
            if fa >= ended and fb >= ended:
                grown += (key | bit, fa, fb, ca, cb), (key, fa, fb, ca, cb)
                continue
            try:
                g = memo[ca]
            except KeyError:
                g = memo[ca] = block_optimum(pieces, v, q, ca)[0]
            grown.append((key | bit, g if g > fa else fa, fb, ca + q, cb))
            try:
                g = memo[cb]
            except KeyError:
                g = memo[cb] = block_optimum(pieces, v, q, cb)[0]
            grown.append((key, fa, g if g > fb else fb, ca, cb + q))
        states, ended = grown, ceiling
    head_bits = sum(bit for bit, *_ in head)
    head_table = {  # mask & head_bits -> (f', f'', c', c'', the sellers left to walk)
        key: (fa, fb, ca, cb, () if fa >= ended and fb >= ended else tail) for key, fa, fb, ca, cb in states
    }

    def side_optima(mask: int) -> tuple[float, float]:
        fa, fb, ca, cb, rest = head_table[mask & head_bits]
        for bit, q, v, memo, ceiling in rest:
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
    draw, plus the tie band (:func:`tie_band`), inside which it runs the
    auction.

    The auction extracts each side's optimum from the other side and keeps
    the better sub-auction. Outside the band around a tie this earns
    exactly min(f', f''), the larger side trading at the smaller optimum
    (:func:`tie_band` holds the proof), so such a draw skips both
    extractions and the outcome. Inside the band the engine runs the
    auction itself: it splits the bids as :func:`split_auction` does and
    settles them with :func:`_settle`, passing the walk's (f', f''), which
    are the scan's floats bit for bit, and its own band, the one
    :func:`split_auction` builds for the draw. So the engine returns
    :func:`run_pepac`'s float on every draw by construction, the band only
    deciding which draws may skip the run, and an in-band draw rescans no
    side and rebuilds no band.
    """
    side_optima = side_optima_by_mask(instance)
    band = tie_band(instance.curve.pieces, instance.total_supply)(instance.sorted_bids[-1].valuation)

    def profit_for_mask(mask: int) -> float:
        fa, fb = side_optima(mask)
        if fa - fb > band:
            return fb
        if fb - fa > band:
            return fa
        return _settle(instance, _split(instance, mask), (fa, fb), ({}, {}), band)[0].profit

    return profit_for_mask


# --- comparators: the generic bid-independent engine and Kth price -------------


def _fill(instance: Instance, order: Iterable[Bid], units: int) -> list[int]:
    """The allocation, in bid order, that buys ``units`` units from the bids
    of ``order`` in turn: each gets min(its capacity, the units left), so
    the last one bought from may sell part of its capacity and every bid
    after it sells nothing. The comparators' one fill; the split auction
    builds its outcome from its extraction's winners instead."""
    alloc = [0] * instance.n
    for b in order:
        if not units:
            break
        alloc[b.id] = take = min(b.capacity, units)
        units -= take
    return alloc


ThresholdFunction = Callable[[tuple[Bid, ...], RevenueCurve], float]


def run_bid_independent(instance: Instance, f: ThresholdFunction) -> AuctionOutcome:
    """Two-phase auction driven by a threshold function of the other bids.

    Phase I offers each bidder the threshold computed from the masked bid
    vector and drops bidders asking more than their threshold. Phase II
    fills units in ascending (threshold, id) order (:func:`_fill`, the
    marginal seller possibly partial) up to the unit count maximizing
    revenue minus threshold payments (:func:`scan_pay_as_bid`), and pays
    each winner their threshold per unit.
    """
    bids = instance.bids
    thresholds = [float(f(bids[:i] + bids[i + 1:], instance.curve)) for i in range(instance.n)]
    survivors = sorted((b for b in bids if leq(b.valuation, thresholds[b.id])), key=lambda b: (thresholds[b.id], b.id))
    _, units, _ = scan_pay_as_bid([(thresholds[b.id], b.capacity) for b in survivors], instance.curve.pieces)
    alloc = _fill(instance, survivors, units)
    return make_outcome(instance, alloc, [t if x else 0.0 for t, x in zip(thresholds, alloc)])


def make_threshold_posted(price: float) -> ThresholdFunction:
    def posted(masked, curve) -> float:
        return price

    return posted


threshold_zero = make_threshold_posted(0.0)


def threshold_masked_opp(masked, curve) -> float:
    """The optimal single-price of the masked vector, as a payment offer:
    the scan's price over the masked bids in (valuation, id) order."""
    pairs = [(b.valuation, b.capacity) for b in sorted(masked, key=attrgetter("valuation", "id"))]
    _, _, _, price = scan_single_price(pairs, curve.pieces)
    return price


def run_kth_price(instance: Instance, demand_cap: int) -> AuctionOutcome:
    """Fill units cheapest-first up to the demand cap (:func:`_fill`); pay
    every winner the first losing seller's valuation per unit.

    Truthful in valuations but manipulable through capacity underreports,
    which is what the audits are meant to catch. Raises
    :class:`UndefinedPriceError` when some seller wins and nobody is left
    out.
    """
    require_count(demand_cap, "demand cap", 0)
    alloc = _fill(instance, instance.sorted_bids, demand_cap)
    price = next((b.valuation for b in instance.sorted_bids if not alloc[b.id]), None)
    if price is None:  # an instance has a bid, so every bid won
        raise UndefinedPriceError("every bidder won; the first losing valuation does not exist")
    return make_outcome(instance, alloc, [price if x else 0.0 for x in alloc])


# --- mechanism registry --------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """A named, runnable mechanism with a uniform ``run(instance, seed)``
    interface; deterministic mechanisms ignore the seed."""

    name: str
    randomized: bool
    run: Callable[[Instance, int | None], MechanismRun]


def resolve_mechanism(name: str, demand_cap: int | None = None) -> Mechanism:
    """Map a mechanism name string to a runnable mechanism.

    Names: ``pepa``, ``pepac``, ``kth-price`` (needs a demand cap), and
    ``bid-independent:<f>`` with f one of ``zero``, ``posted=<price>``,
    ``opp``. A posted price that is not a finite number >= 0 raises
    :class:`UnknownMechanismError` naming it. A demand cap given to any
    mechanism but ``kth-price``, which alone reads it, raises ``ValueError``.
    """
    if name == "kth-price":
        if demand_cap is None:
            raise ValueError("kth-price requires a demand cap")
        return Mechanism(name, False, lambda inst, seed=None: MechanismRun(run_kth_price(inst, demand_cap)))
    if name in ("pepa", "pepac"):
        mech = Mechanism(name, True, run_pepa if name == "pepa" else run_pepac)
    elif name.startswith("bid-independent:"):
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
        mech = Mechanism(name, False, lambda inst, seed=None: MechanismRun(run_bid_independent(inst, f)))
    else:
        raise UnknownMechanismError(f"unknown mechanism {name!r}")
    if demand_cap is not None:
        raise ValueError(f"a demand cap (--demand-cap) is read only by kth-price, not by {name}")
    return mech
