"""Omniscient benchmarks: the full-information optima used as competitive-ratio denominators.

All three benchmarks scan unit counts against the valuation-sorted bid list:
the buyer fills cheapest sellers first, the marginal seller possibly
partially. ``optimal_single_price`` pays every winner the marginal winner's
valuation; ``optimal_multi_price`` pays each winner their own valuation;
``optimal_single_price_min2`` is the single-price optimum constrained to buy
from at least two sellers.
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


def scan_single_price(pairs, rtable, lo: int = 0, include_empty: bool = True):
    """Best single-price buy over unit counts u with lo < u <= total supply.

    ``pairs`` is a (valuation, capacity) sequence already sorted ascending by
    (valuation, id). Every unit count u is priced at the valuation of the
    seller supplying the u-th unit in that order. Ties across unit counts
    resolve to the smallest count. Returns (profit, units, winners, price);
    with ``include_empty`` the no-trade option (0, 0, 0, 0.0) is a candidate.

    Returns None if the candidate set is empty (lo >= supply and no
    no-trade fallback).
    """
    best = (0.0, 0, 0, 0.0) if include_empty else None
    u = 0
    for j, (v, q) in enumerate(pairs):
        for _ in range(q):
            u += 1
            if u <= lo:
                continue
            profit = rtable[u] - u * v
            if best is None or profit > best[0]:
                best = (profit, u, j + 1, v)
    return best


def block_optimum(rtable, v: float, q: int, c: int) -> float:
    """g(j, c): the best single-price profit whose marginal unit falls in
    seller j's block, when c cheaper units precede it on its side.

    Seller j asks v per unit for q units, so its block covers the unit
    counts c+1..c+q, each priced ``R(u) - u * v``: the same float
    expression as :func:`scan_single_price`. A side's optimum is therefore
    exactly the largest of 0 and g(j, c_j) over its members, with c_j the
    side's units cheaper than seller j.
    """
    return max(rtable[u] - u * v for u in range(c + 1, c + q + 1))


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
    rtable = instance.revenue_table
    best_profit, best_units, best_winners = 0.0, 0, 0
    u = 0
    cost = 0.0
    for j, b in enumerate(instance.sorted_bids):
        for _ in range(b.capacity):
            u += 1
            cost += b.valuation
            profit = rtable[u] - cost
            if profit > best_profit:
                best_profit, best_units, best_winners = profit, u, j + 1
    return BenchmarkResult(profit=best_profit, k_winners=best_winners, units=best_units, price=None)


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
    lo = pairs[0][1]
    scanned = scan_single_price(pairs, instance.revenue_table, lo=lo, include_empty=False)
    profit, units, winners, price = scanned
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
