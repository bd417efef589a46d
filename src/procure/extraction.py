"""Profit extraction: secure a target profit P from the cheapest qualifying sellers.

Given a target P, find the largest unit count u such that the seller
supplying the u-th unit (cheapest first) values it at no more than
(R(u) - P) / u. Buy those u units at that uniform per-unit price: the buyer
keeps exactly P, and no seller is paid below their ask. If no unit count
qualifies, nobody trades.

Each seller block is searched on the parts where it crosses the revenue
curve's affine pieces (``benchmarks.block_parts``, shared with the
single-price kernel). On a part the acceptance check is monotone in the
unit count outside a proven band, so such a part costs one or two checks
and at most one bisection, and the search costs O(pieces) per block, not
one check per unit. Inside the band a part is walked count by count, but
only down to a count that, like the part's first, fails by a margin.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .benchmarks import block_parts
from .model import EPS, leq, piece_revenue


@dataclass(frozen=True)
class ExtractionResult:
    """Winners as (seller id, units) in cheapest-first order, all paid the same per-unit price."""

    winners: tuple[tuple[int, int], ...]
    price_per_unit: float
    profit: float


NO_TRADE = ExtractionResult(winners=(), price_per_unit=0.0, profit=0.0)


def run_extraction(sorted_bids, pieces, target: float) -> ExtractionResult:
    """Extraction core over bids already sorted by (valuation, id).

    Finds the largest unit count u whose marginal supplier qualifies,
    v <= (R(u) - target) / u up to ``EPS`` (the check ``leq``), searching
    the sellers' blocks from the most expensive down. The first winners sell
    full capacity; the marginal one sells the remainder, and every winner is
    paid (R(u) - target) / u per unit. An empty bid list never trades. The
    result, price bit for bit, is that of a count-by-count scan from the
    total supply downward. A target that is not a finite int or float (a
    bool is neither), or is negative, raises ``ValueError`` naming it.

    ``pieces`` are the curve's affine pieces (:attr:`RevenueCurve.pieces`).
    Each block is searched on the parts where it crosses them
    (:func:`_last_qualifying_in_block`), so its cost does not grow with its
    supply.
    """
    if not isinstance(target, (int, float)) or isinstance(target, bool) or not abs(target) <= sys.float_info.max:
        raise ValueError(f"target profit must be a finite number, got {target!r}")
    target = float(target)
    if target < 0:
        raise ValueError(f"target profit must be >= 0, got {target}")
    last = sum(b.capacity for b in sorted_bids)  # the units up to and including block j
    for j in range(len(sorted_bids) - 1, -1, -1):
        bid = sorted_bids[j]
        first = last - bid.capacity + 1
        found = _last_qualifying_in_block(pieces, bid.valuation, target, first, last)
        if found:
            u, price = found
            winners = [(b.id, b.capacity) for b in sorted_bids[:j]]
            winners.append((bid.id, u - first + 1))
            return ExtractionResult(winners=tuple(winners), price_per_unit=price, profit=target)
        last = first - 1
    return NO_TRADE


def _offer(piece, u: int, target: float) -> float:
    """The per-unit price (R(u) - target) / u that leaves the buyer
    ``target`` when u units are bought, R(u) on the ``piece`` holding u."""
    return (piece_revenue(piece, u) - target) / u


def _last_qualifying_in_block(pieces, v: float, target: float, first: int, last: int) -> tuple[int, float] | None:
    """(u, price) for the largest u in first..last with
    v <= price = (R(u) - target) / u up to EPS, else None: one seller
    block of :func:`run_extraction`'s search.

    The block's counts are cut at the curve's ``pieces``
    (:func:`~procure.benchmarks.block_parts`), and its parts lo..hi are
    searched from right to left. With w = v - EPS, s the part's slope and

        band = 2^-40 (R(last) + target + last (v + EPS)),

    a part returns hi if hi qualifies. Otherwise, if s - w > ``band`` the
    part rises and nothing else in it qualifies; if w - s > ``band`` it
    falls, and if lo qualifies, a bisection finds the last qualifying
    count. Inside the band its counts are checked one by one from hi down,
    which keeps exact ties exact, but the walk stops at a count u that
    fails the check with the ask lowered by band / u if lo fails it too
    (so an ask at a slope, v = s, with a target away from the edge costs
    three checks). A block thus costs a piece search, one evaluation of R
    for the band, at most three checks per part it crosses and one bisection,
    whatever its supply, except where h (below) stays within about a band
    of 0 over many counts of a part inside the band.

    Proof that outside the band the check is monotone on a part, and that
    the counts an in-band walk leaves do not qualify, with e = 2^-53 the
    rounding unit, P = target >= 0 and EPS > 0. On a piece, R(u) is
    A(u) = B + s (u - b) evaluated in floats, and as in
    :func:`~procure.benchmarks.block_optimum`'s proof, R(u) lies within
    2.01 e A(u) of A(u) and A(u) <= (1 + 4.1 e) R(last) on the block. So

        h(u) = A(u) - P - u (v - EPS)

    is affine on a part, with slope s - v + EPS. The check compares v with
    fl(fl(fl(R(u) - P) / u) + EPS): a difference, a quotient by a positive
    integer and a sum, each with relative error at most e. That value lies
    within D(u) / u of h(u) / u + v, where D(u) = 5.04 e A(u) + 3.02 e P +
    1.01 e u EPS <= 5.1 e (R(last) + P + last EPS) = D. Hence a qualifying
    count has h(u) >= -D, and a count with h(u) >= D qualifies.

    - Rising, s - v + EPS > 2 D: hi fails, so h(hi) < D, and every u < hi
      has h(u) <= h(hi) - (s - v + EPS) < -D: none qualifies.
    - Falling, v - EPS - s > 2 D: if u qualifies, every u' < u has
      h(u') > -D + 2 D = D and qualifies. So the qualifying counts are a
      prefix of the part: empty if lo fails, and otherwise ending at the
      count the bisection finds between lo (qualifies) and hi (fails).
    - Inside the band, if v lowered by band / u fails at u, then
      h(u) < -band (1 - 2e) + u e v + D < -D, since u e v <= 2^-13 band and
      2 D <= 2^-9 band (below). If that holds at lo and at u, it holds on
      lo..u, as h is affine, and no count there qualifies.
    - The tests are made in floats on w = fl(v - EPS). fl(s - w) > fl(band)
      implies s - v + EPS > fl(band) (1 - e) - e (v + EPS), and
      band >= 2^-40 (v + EPS) since last >= 1, so s - v + EPS >
      2^-40 (R(last) + P + last (v + EPS)) (1 - 2^-12), far above 2 D
      (likewise for w - s). The band is at least 2^-40 EPS, a normal float.
      An overflowing band is infinite, and every part is walked.

    A block of one unit checks its one count, with no band.
    """
    parts = block_parts(pieces, first, last)
    if first == last:
        price = _offer(parts[0][2], last, target)
        return (last, price) if leq(v, price) else None
    w = v - EPS
    band = 2.0**-40 * (piece_revenue(parts[-1][2], last) + target + last * (v + EPS))
    for lo, hi, piece in reversed(parts):
        price = _offer(piece, hi, target)
        if leq(v, price):
            return hi, price
        s = piece[1]
        if s - w > band:
            continue
        if w - s > band:
            price = _offer(piece, lo, target)
            if leq(v, price):
                while hi - lo > 1:  # lo qualifies, hi does not
                    mid = (lo + hi) // 2
                    mid_price = _offer(piece, mid, target)
                    if leq(v, mid_price):
                        lo, price = mid, mid_price
                    else:
                        hi = mid
                return lo, price
            continue
        lo_fails = not leq(v - band / lo, _offer(piece, lo, target))
        for u in range(hi, lo - 1, -1):
            price = _offer(piece, u, target)
            if u < hi and leq(v, price):
                return u, price
            if lo_fails and not leq(v - band / u, price):
                break  # lo..u all fail
    return None

