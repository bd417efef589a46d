"""Omniscient benchmarks: the full-information optima used as competitive-ratio denominators.

All three benchmarks scan unit counts against the valuation-sorted bid list:
the buyer fills cheapest sellers first, the marginal seller possibly
partially. ``optimal_single_price`` (F) pays every winner the marginal
winner's valuation; ``optimal_multi_price`` (T) pays each winner their own
valuation; ``optimal_single_price_min2`` (F^(2)) is the single-price optimum
constrained to buy from at least two sellers, which leaves out the cheapest
seller's block and has no no-trade fallback.

F, F^(2), a split auction side's optimum, the masked optimal single price
and the per-draw side walk (``mechanisms.side_optima_by_mask``, which the
Monte Carlo engine and exact enumeration share) are all built on one
kernel, :func:`block_optimum` (``simulation._side_thresholds`` computes the
same floats for every preceding unit count at once, for threshold
counting). The kernel reads O(pieces) counts per seller block, not one
per unit: on each affine piece of the revenue curve that a block crosses,
the profit is strictly monotone unless the ask lies within a proven band of
the piece's slope, so one end of that part holds its best float (inside
the band the part is walked, which keeps exact ties exact). A single-price
scan over n sellers thus costs O(n (log k + k)) for a curve of k pieces,
whatever the supply.

T and the bid-independent auction's phase II share
:func:`scan_pay_as_bid`. Both scans resolve ties to the smallest unit
count: a candidate replaces the best only if it is strictly larger.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .model import Instance


class BenchmarkUndefinedError(ValueError):
    """Raised when a benchmark's constraint cannot be met (e.g. fewer than 2 bidders)."""


@dataclass(frozen=True)
class BenchmarkResult:
    profit: float
    k_winners: int
    units: int
    price: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "profit": self.profit,
            "k_winners": self.k_winners,
            "units": self.units,
            "price": self.price,
        }


def block_optimum(rtable, pieces, v: float, q: int, c: int) -> tuple[float, int]:
    """g(j, c) and its unit count: the best single-price profit whose
    marginal unit falls in seller j's block, when c cheaper units precede
    it on its side.

    Seller j asks v per unit for q >= 1 units, so its block covers the unit
    counts c+1..c+q, each priced ``R(u) - u * v`` with R(u) = ``rtable[u]``.
    Returns (profit, u) with u the smallest count reaching the best profit:
    the first maximal float of that walk, -0.0 included. A side's optimum,
    F, F^(2) and the per-draw side walk are all built from it, so they
    share this float expression and this tie rule.

    ``pieces`` are the curve's affine pieces (:attr:`RevenueCurve.pieces`).
    The block is cut where it crosses them, and on each part the kernel
    reads only the counts that can hold that part's first maximal float:
    the right end if s - v > ``band``, the left end if v - s > ``band``,
    and every count otherwise, s the piece's slope and

        band = 2^-40 (R(c+q) + (c+q) v).

    So a block costs a piece search over the k pieces, O(log k), plus one
    table read for the band and one per piece it crosses, except on a piece
    whose slope is within the band of v. The result is the walk's bit for
    bit: the walk's first maximum is the first maximum of its part, and
    the parts' candidates, taken in order and each replacing the best only
    if strictly larger, reach it. A one-unit block reads its one count,
    with no piece search and no band.

    Proof that outside the band a part is strictly monotone, with e = 2^-53
    the rounding unit. On a piece, R(u) is A(u) = B + s (u - b) evaluated
    in floats, for a base count b, base revenue B >= 0 and slope s >= 0
    (b = B = 0 on a linear curve and below a cap; on a cap's plateau s = 0
    and B is the float r * cap), and A grows by exactly s per unit. Every
    operation here is a sum or a product of a float by a positive integer,
    so none loses accuracy to underflow, and each has relative error at
    most e:

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
        counts = (last,)
    else:
        band = 2.0**-40 * (rtable[last] + last * v)
        counts = []
        lo = c + 1
        i = bisect_left(pieces, lo, key=_piece_end)
        while lo <= last:
            end, s = pieces[i]
            hi = min(end, last)
            if s - v > band:
                counts.append(hi)
            elif v - s > band:
                counts.append(lo)
            else:
                counts += range(lo, hi + 1)
            lo, i = hi + 1, i + 1
    best, best_u = -math.inf, c + 1
    for u in counts:
        profit = rtable[u] - u * v
        if profit > best:
            best, best_u = profit, u
    return best, best_u


_piece_end = itemgetter(0)


def scan_single_price(pairs, rtable, pieces, min2: bool = False):
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
            profit, u = block_optimum(rtable, pieces, v, q, c)
            if best is None or profit > best[0]:
                best = (profit, u, j + 1, v)
        c += q
    return best


def scan_pay_as_bid(pairs, rtable) -> tuple[float, int, int]:
    """Best pay-as-bid buy over the unit counts of ``pairs``.

    ``pairs`` is an (ask, capacity) sequence in the order units are bought.
    Buying u units costs the sum of the asks of the first u units, added up
    unit by unit in that order. A count replaces the best only if strictly
    better, so ties resolve to the smallest count, and no trade
    (0.0, 0, 0) is the starting candidate. Returns (profit, units, winners).
    """
    best_profit, best_units, best_winners = 0.0, 0, 0
    u = 0
    cost = 0.0
    for j, (v, q) in enumerate(pairs):
        for _ in range(q):
            u += 1
            cost += v
            profit = rtable[u] - cost
            if profit > best_profit:
                best_profit, best_units, best_winners = profit, u, j + 1
    return best_profit, best_units, best_winners


def optimal_single_price(instance: Instance) -> BenchmarkResult:
    """Max over unit counts of R(u) - u * (marginal winner's valuation).

    The reported price is the optimal procurement price; no trade yields
    profit 0 with price 0.
    """
    pairs = [(b.valuation, b.capacity) for b in instance.sorted_bids]
    profit, units, winners, price = scan_single_price(pairs, instance.revenue_table, instance.curve.pieces)
    return BenchmarkResult(profit=profit, k_winners=winners, units=units, price=price)


def optimal_multi_price(instance: Instance) -> BenchmarkResult:
    """Max over unit counts of R(u) - (sum of the u cheapest units' valuations).

    Each winner is paid their own valuation per unit, so this dominates the
    single-price optimum pointwise.
    """
    pairs = [(b.valuation, b.capacity) for b in instance.sorted_bids]
    profit, units, winners = scan_pay_as_bid(pairs, instance.revenue_table)
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
    profit, units, winners, price = scan_single_price(pairs, instance.revenue_table, instance.curve.pieces, min2=True)
    return BenchmarkResult(profit=profit, k_winners=winners, units=units, price=price)


def harmonic(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.fsum(1.0 / i for i in range(1, n + 1))


def exact_pepa_ratio(k: int) -> float:
    """Expected profit share of the random-split extraction auction.

    When the at-least-two-winners single-price optimum buys from k sellers
    of equal margin under a linear curve, splitting them by fair coins and
    extracting the smaller side's optimum yields, in expectation,
    1/2 - C(k-1, floor(k/2)) / 2^k of that optimum. Minimum 1/4 at k = 2
    and k = 3; approaches 1/2 as k grows.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 0.5 - math.comb(k - 1, k // 2) * 2.0 ** (-k)
