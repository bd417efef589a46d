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
counting). T and the bid-independent auction's phase II share
:func:`scan_pay_as_bid`. Both resolve ties to the smallest unit count: a
candidate replaces the best only if it is strictly larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def block_optimum(rtable, v: float, q: int, c: int) -> tuple[float, int]:
    """g(j, c) and its unit count: the best single-price profit whose
    marginal unit falls in seller j's block, when c cheaper units precede
    it on its side.

    Seller j asks v per unit for q >= 1 units, so its block covers the unit
    counts c+1..c+q, each priced ``R(u) - u * v``. Returns (profit, u) with
    u the smallest count reaching the best profit: the comparison is a
    strict ``>``, so the first maximal float wins, -0.0 included. A side's
    optimum, F, F^(2) and the per-draw side walk are all built from it, so
    they share this float expression and this tie rule.
    """
    best, best_u = -math.inf, c + 1
    for u in range(c + 1, c + q + 1):
        profit = rtable[u] - u * v
        if profit > best:
            best, best_u = profit, u
    return best, best_u


def scan_single_price(pairs, rtable, min2: bool = False):
    """Best single-price buy over the unit counts of ``pairs``.

    ``pairs`` is a (valuation, capacity) sequence already sorted ascending by
    (valuation, id). Every unit count u is priced at the valuation of the
    seller supplying the u-th unit in that order. Each seller's block is
    scanned by :func:`block_optimum`, and a later block replaces the best
    only if it is strictly better, so ties across unit counts resolve to
    the smallest count. Returns (profit, units, winners, price).

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
            profit, u = block_optimum(rtable, v, q, c)
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
    profit, units, winners, price = scan_single_price(pairs, instance.revenue_table)
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
    profit, units, winners, price = scan_single_price(pairs, instance.revenue_table, min2=True)
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
