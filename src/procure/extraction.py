"""Profit extraction: secure a target profit P from the cheapest qualifying sellers.

Given a target P, find the largest unit count u such that the seller
supplying the u-th unit (cheapest first) values it at no more than
(R(u) - P) / u. Buy those u units at that uniform per-unit price: the buyer
keeps exactly P, and no seller is paid below their ask. If no unit count
qualifies, nobody trades.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EPS, Instance, leq


@dataclass(frozen=True)
class ExtractionResult:
    """Winners as (seller id, units) in cheapest-first order, all paid the same per-unit price."""

    winners: tuple[tuple[int, int], ...]
    price_per_unit: float
    profit: float

    @property
    def traded(self) -> bool:
        return bool(self.winners)

    def units_for(self, seller_id: int) -> int:
        for sid, units in self.winners:
            if sid == seller_id:
                return units
        return 0


NO_TRADE = ExtractionResult(winners=(), price_per_unit=0.0, profit=0.0)


def run_extraction(sorted_bids, rtable, target: float, maxima) -> ExtractionResult:
    """Extraction core over bids already sorted by (valuation, id).

    Finds the largest unit count u whose marginal supplier qualifies,
    v <= (R(u) - target) / u up to ``EPS``, searching the sellers' blocks
    from the most expensive down. The first winners sell full capacity; the
    marginal one sells the remainder, and every winner is paid
    (R(u) - target) / u per unit. An empty bid list never trades.

    ``maxima`` are the :class:`~procure.model.AverageRevenueMaxima` of a
    table of which ``rtable`` is a prefix. The search skips every range of
    counts that the maxima prove holds no qualifying count and checks the
    rest count by count, so its cost does not grow with how far below the
    total supply the winning count lies. It finds the count, and computes
    the price, that a count-by-count scan from the total supply downward
    would.
    """
    target = float(target)
    if target < 0:
        raise ValueError(f"target profit must be >= 0, got {target}")
    levels = maxima.levels
    cums = [0]
    for b in sorted_bids:
        cums.append(cums[-1] + b.capacity)
    for j in range(len(sorted_bids) - 1, -1, -1):
        v = sorted_bids[j].valuation
        u = _last_qualifying_in_node(rtable, levels, len(levels) - 1, 0, v, target, cums[j] + 1, cums[j + 1])
        if u:
            winners = [(sorted_bids[i].id, sorted_bids[i].capacity) for i in range(j)]
            winners.append((sorted_bids[j].id, u - cums[j]))
            return ExtractionResult(winners=tuple(winners), price_per_unit=(rtable[u] - target) / u, profit=target)
    return NO_TRADE


def _last_qualifying(rtable, v: float, target: float, lo: int, hi: int) -> int:
    """The largest u in lo..hi with v <= (R(u) - target) / u up to EPS, else
    0: the leaf check of :func:`_last_qualifying_in_node`."""
    for u in range(hi, lo - 1, -1):
        if leq(v, (rtable[u] - target) / u):
            return u
    return 0


# Ranges of at most this many unit counts are checked count by count.
_LEAF_UNITS = 16
# Relative slack on a node's price bound (see _last_qualifying_in_node).
_BOUND_SLACK = 2.0**-40


def _last_qualifying_in_node(rtable, levels, k: int, i: int, v: float, target: float, lo: int, hi: int) -> int:
    """:func:`_last_qualifying` over the counts of lo..hi in node i of level k.

    For counts a <= u <= b of the node, the price (R(u) - target) / u is at
    most top - target / b, top = levels[k][i]. The computed price and the
    computed bound each differ from the exact ones by a few units of 2^-53
    of top + target / a + EPS, which the slack 2^-40 of that sum exceeds.
    So when v exceeds the bound plus EPS and the slack, no count of the
    node passes the count-by-count check; otherwise the node's right half
    is searched before its left.
    """
    a = max(lo, i << k)
    b = min(hi, ((i + 1) << k) - 1)
    if a > b:
        return 0
    if b - a < _LEAF_UNITS:
        return _last_qualifying(rtable, v, target, a, b)
    top = levels[k][i]
    if v > top - target / b + EPS + _BOUND_SLACK * (top + target / a + EPS):
        return 0
    return _last_qualifying_in_node(rtable, levels, k - 1, 2 * i + 1, v, target, lo, hi) or _last_qualifying_in_node(
        rtable, levels, k - 1, 2 * i, v, target, lo, hi
    )


def pe(instance: Instance, target: float) -> ExtractionResult:
    """Unit-capacity extraction: the largest k cheapest sellers with
    v_[k] <= (R(k) - P) / k. It is :func:`pec` once the capacities are
    checked to be 1."""
    if not instance.is_unit_capacity:
        raise ValueError("pe requires unit capacities; use pec for capacitated instances")
    return pec(instance, target)


def pec(instance: Instance, target: float) -> ExtractionResult:
    """Capacitated extraction: :func:`run_extraction` over the instance's
    sorted bids and revenue table."""
    return run_extraction(instance.sorted_bids, instance.revenue_table, target, instance.revenue_maxima)
