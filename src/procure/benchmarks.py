"""Omniscient benchmarks: the full-information optima used as competitive-ratio denominators.

All three benchmarks scan unit counts against the valuation-sorted bid list:
the buyer fills cheapest sellers first, the marginal seller possibly
partially. ``optimal_single_price`` (F) pays every winner the marginal
winner's valuation; ``optimal_multi_price`` (T) pays each winner their own
valuation; ``optimal_single_price_min2`` (F^(2)) is the single-price optimum
constrained to buy from at least two sellers, which leaves out the cheapest
seller's block and has no no-trade fallback.

F, F^(2), a split auction side's optimum, the masked optimal single price,
the per-draw side walk (``mechanisms.side_optima_by_mask``, which the
Monte Carlo engine and exact enumeration share) and the thresholds that
exact counting (``simulation._min_side_by_counting``) computes in its
sweep are all built on one kernel, :func:`block_optimum`. The kernel reads
O(pieces) counts per seller block, not one per unit: on each affine piece
of the revenue curve that a block crosses, the profit is strictly monotone
unless the ask lies within a proven band of the piece's slope, so one end
of that part holds its best float (inside the band the part is walked,
which keeps exact ties exact). A single-price scan over n sellers thus
costs O(n (log k + k)) for a curve of k pieces, whatever the supply.

The cut of a block at the pieces, :func:`block_parts`, is shared by the
kernel and by profit extraction (``extraction.run_extraction``), which
searches each part for the last count whose seller accepts the offer.

T and the bid-independent auction's phase II share
:func:`scan_pay_as_bid`. Both scans resolve ties to the smallest unit
count: a candidate replaces the best only if it is strictly larger.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .model import Instance, piece_end, piece_revenue, require_count


class BenchmarkUndefinedError(ValueError):
    """Raised when a benchmark's constraint cannot be met (F^(2) with fewer
    than 2 bidders), and when a ratio's benchmark is not strictly positive."""


@dataclass(frozen=True)
class BenchmarkResult:
    profit: float
    k_winners: int
    units: int
    price: float | None = None


def block_optimum(pieces, v: float, q: int, c: int) -> tuple[float, int]:
    """g(j, c) and its unit count: the best single-price profit whose
    marginal unit falls in seller j's block, when c cheaper units precede
    it on its side.

    Seller j asks v per unit for q >= 1 units, so its block covers the unit
    counts c+1..c+q, each priced ``R(u) - u * v`` with R(u) from
    :func:`~procure.model.piece_revenue`.
    Returns (profit, u) with u the smallest count reaching the best profit:
    the walk's first maximum, -0.0 included. A side's optimum, F, F^(2),
    the per-draw side walk and the thresholds of exact counting are all
    built from it, so they share this float expression and this tie rule.

    ``pieces`` are the curve's affine pieces (:attr:`RevenueCurve.pieces`).
    The block is cut where it crosses them (:func:`block_parts`), and on
    each part the kernel reads only the counts that can hold that part's
    first maximum: the right end if s - v > ``band``, the left end if
    v - s > ``band``, and every count otherwise, s the piece's slope and

        band = 2^-40 (R(c+q) + (c+q) v).

    So a block costs a piece search over the k pieces, O(log k), plus one
    evaluation of R for the band and one per piece it crosses, except on a
    piece whose slope is within the band of v, whose counts are walked one
    at a time without being collected. The result is the walk's bit for
    bit: the walk's first maximum is the first maximum of its part, and
    the parts' candidates, taken in order and each replacing the best only
    if strictly larger, reach it. A one-unit block reads its one count,
    with no band.

    Proof that outside the band a part is strictly monotone, with e = 2^-53
    the rounding unit. On a piece, R(u) is A(u) = B + s (u - b) evaluated
    in floats, for a base count b, base revenue B >= 0 and slope s >= 0
    (b = 0 and B = r * 0.0 on a linear curve and below a cap; on a cap's
    plateau s = r * 0.0 and B is the float r * cap), and A grows by
    exactly s per unit. Every operation here is a sum or a product of a
    float by a positive integer, so none loses accuracy to underflow, and
    each has relative error at most e:

    - R(u) lies within 2.01 e A(u) of A(u), and the computed profit
      fl(R(u) - fl(u v)) within d(u) = 3.03 e (A(u) + u v) of A(u) - u v.
    - A is non-decreasing within a piece, and at a breakpoint it can
      drop by at most 2.01 e of the breakpoint's revenue (the slope
      float's rounding), so A(u) <= (1 + 4.1 e) R(c+q) on the block and
      d(u) <= 3.1 e X with X = R(c+q) + (c+q) v.
    - On a part, the exact profit changes by s - v per unit, so the
      computed profit strictly increases with u where s - v > 2 max d,
      and strictly decreases where v - s > 2 max d; 2 max d <= 6.2 e X.
    - Floats are multiples of 2^-1074, so fl(s - v) > fl(band) implies
      s - v > 2^-40 fl(X) >= 2^-40 X (1 - 2e), far above 6.2 e X (and
      likewise for v - s), even where the band rounds to a subnormal.
      When v equals a slope, neither test holds and the part is walked,
      which keeps exact ties (``linear_curve(r)`` with v = r, a capped
      plateau with v = 0) exact. An overflowing X makes the band
      infinite, and every part is walked.
    """
    last = c + q
    if q == 1:
        return piece_revenue(pieces[bisect_left(pieces, last, key=piece_end)], last) - last * v, last
    parts = block_parts(pieces, c + 1, last)
    band = 2.0**-40 * (piece_revenue(parts[-1][2], last) + last * v)
    best, best_u = -math.inf, c + 1
    for lo, hi, piece in parts:
        s = piece[1]
        if s - v > band:
            counts = (hi,)
        elif v - s > band:
            counts = (lo,)
        else:
            counts = range(lo, hi + 1)
        for u in counts:
            profit = piece_revenue(piece, u) - u * v
            if profit > best:
                best, best_u = profit, u
    return best, best_u


def block_parts(pieces, lo: int, hi: int) -> list[tuple[int, int, tuple]]:
    """The unit counts lo..hi (lo <= hi) cut where they cross the curve's
    affine ``pieces`` (:attr:`RevenueCurve.pieces`): one (first count,
    last count, piece) triple per part, in increasing order of counts, so
    a reader evaluates R on a part with :func:`~procure.model.piece_revenue`
    and the part's own piece.

    The one piece cut: :func:`block_optimum` and
    :func:`procure.extraction.run_extraction` both read a seller block
    through it. Costs a piece search, O(log k) for k pieces, plus one step
    per piece the block crosses; a block inside one piece is returned
    without the loop.
    """
    i = bisect_left(pieces, lo, key=piece_end)
    piece = pieces[i]
    if hi <= piece[0]:
        return [(lo, hi, piece)]
    parts = []
    while lo <= hi:
        piece = pieces[i]
        last = min(piece[0], hi)
        parts.append((lo, last, piece))
        lo, i = last + 1, i + 1
    return parts


def scan_single_price(pairs, pieces, min2: bool = False):
    """Best single-price buy over the unit counts of ``pairs``.

    ``pairs`` is a (valuation, capacity) sequence already sorted ascending by
    (valuation, id), and ``pieces`` the curve's affine pieces. Every unit
    count u is priced at the valuation of the seller supplying the u-th unit
    in that order. Each seller's block is scanned by :func:`block_optimum`,
    and a later block replaces the best only if it is strictly better, so
    ties across unit counts resolve to the smallest count. Returns
    (profit, units, winners, price).

    By default the no-trade option (0.0, 0, 0, 0.0) is the starting
    candidate: this is F, and a side's optimum. With ``min2`` the scan is
    F^(2): the cheapest seller's block is left out, so the marginal winner
    is the second seller or later, and there is no no-trade fallback. It
    returns None when fewer than two sellers are given.
    """
    best = None if min2 else (0.0, 0, 0, 0.0)
    c = 0
    for j, (v, q) in enumerate(pairs):
        if j or not min2:
            profit, u = block_optimum(pieces, v, q, c)
            if best is None or profit > best[0]:
                best = (profit, u, j + 1, v)
        c += q
    return best


def scan_pay_as_bid(pairs, pieces) -> tuple[float, int, int]:
    """Best pay-as-bid buy over the unit counts of ``pairs``.

    ``pairs`` is an (ask, capacity) sequence in the order units are bought,
    and ``pieces`` the curve's affine pieces. Buying u units costs the sum
    of the asks of the first u units, added up unit by unit in that order,
    so the scan takes a step per unit, with R(u) evaluated on each seller
    block's parts as it goes and nothing tabulated. A count replaces the
    best only if strictly better, so ties resolve to the smallest count,
    and no trade (0.0, 0, 0) is the starting candidate. Returns (profit,
    units, winners).
    """
    best_profit, best_units, best_winners = 0.0, 0, 0
    c = 0
    cost = 0.0
    for j, (v, q) in enumerate(pairs):
        for lo, hi, piece in block_parts(pieces, c + 1, c + q):
            for u in range(lo, hi + 1):
                cost += v
                profit = piece_revenue(piece, u) - cost
                if profit > best_profit:
                    best_profit, best_units, best_winners = profit, u, j + 1
        c += q
    return best_profit, best_units, best_winners


def optimal_single_price(instance: Instance) -> BenchmarkResult:
    """Max over unit counts of R(u) - u * (marginal winner's valuation).

    The reported price is the optimal procurement price; no trade yields
    profit 0 with price 0.
    """
    pairs = [(b.valuation, b.capacity) for b in instance.sorted_bids]
    profit, units, winners, price = scan_single_price(pairs, instance.curve.pieces)
    return BenchmarkResult(profit=profit, k_winners=winners, units=units, price=price)


def optimal_multi_price(instance: Instance) -> BenchmarkResult:
    """Max over unit counts of R(u) - (sum of the u cheapest units' valuations).

    Each winner is paid their own valuation per unit, so this dominates the
    single-price optimum pointwise.
    """
    pairs = [(b.valuation, b.capacity) for b in instance.sorted_bids]
    profit, units, winners = scan_pay_as_bid(pairs, instance.curve.pieces)
    return BenchmarkResult(profit=profit, k_winners=winners, units=units, price=None)


def optimal_single_price_min2(instance: Instance) -> BenchmarkResult:
    """Single-price optimum forced to buy from at least two sellers.

    Scans unit counts strictly above the cheapest seller's capacity, so the
    marginal winner is always the second seller or later. May be negative:
    the constrained buyer has no no-trade fallback. Undefined for fewer than
    two bidders.
    """
    if instance.n < 2:
        raise BenchmarkUndefinedError("needs at least 2 bidders")
    pairs = [(b.valuation, b.capacity) for b in instance.sorted_bids]
    profit, units, winners, price = scan_single_price(pairs, instance.curve.pieces, min2=True)
    return BenchmarkResult(profit=profit, k_winners=winners, units=units, price=price)


def harmonic(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i."""
    require_count(n, "n", 1)
    return math.fsum(1.0 / i for i in range(1, n + 1))


def exact_pepa_ratio(k: int) -> float:
    """Expected profit share of the random-split extraction auction.

    When the at-least-two-winners single-price optimum buys from k sellers
    of equal margin under a linear curve, splitting them by fair coins and
    extracting the smaller side's optimum yields, in expectation,
    1/2 - C(k-1, floor(k/2)) / 2^k of that optimum. Minimum 1/4 at k = 2
    and k = 3; approaches 1/2 as k grows.
    """
    require_count(k, "k", 2)
    return 0.5 - math.comb(k - 1, k // 2) / 2**k  # int true division rounds once, so no k overflows
