"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's scan implementations: the
single-price oracles enumerate winner sets (subsets for unit capacities,
whole allocation vectors for capacitated ones) and price each candidate at
the highest winning valuation, keeping only candidates a uniform-price
auction could actually produce.
"""

from fractions import Fraction
from itertools import product
from math import comb, fsum, inf

from procure.extraction import ExtractionResult
from procure.model import EPS, CurveValidation


def revenue_table(curve, m):
    """R(0..m) as a tuple, one curve evaluation per count, by the per-kind
    formulas: ``r * u`` on a linear curve, ``r * min(u, cap)`` on a capped
    one, and on a pwl curve the segment's first point's revenue plus its
    slope times the counts past that point (the last segment extended past
    the final breakpoint). It shares no code with
    :attr:`procure.model.RevenueCurve.pieces` or
    :func:`procure.model.piece_revenue`, which must give the same floats.
    """
    if curve.kind == "linear":
        values = [curve.r * u for u in range(1, m + 1)]
    elif curve.kind == "capped":
        values = [curve.r * min(u, curve.cap) for u in range(1, m + 1)]
    else:
        segments = []  # (last count, first point's count, first point's revenue, slope)
        prev_q, prev_rev = 0, 0.0
        for bq, brev in curve.points:
            segments.append((bq, prev_q, prev_rev, (brev - prev_rev) / (bq - prev_q)))
            prev_q, prev_rev = bq, brev
        segments.append((inf, prev_q, prev_rev, segments[-1][3]))
        values = []
        for u in range(1, m + 1):
            _, base_q, base_rev, slope = next(seg for seg in segments if u <= seg[0])
            values.append(base_rev + slope * (u - base_q))
    return (0.0, *values)


def per_unit_validate_curve(curve, max_q):
    """Concavity of R over 0..max_q by a check of every marginal: rejects
    at the first k >= 1 with R(k+1) - R(k) > R(k) - R(k-1) + EPS, with
    the message of :func:`procure.model.validate_curve`, which checks the
    curve's slopes instead and must agree wherever rounding does not move
    a marginal by a sizeable part of EPS."""
    table = revenue_table(curve, max_q)
    for k in range(1, max_q):
        before, after = table[k] - table[k - 1], table[k + 1] - table[k]
        if after > before + EPS:
            return CurveValidation(
                False, k,
                f"marginal revenue increases at k={k}: "
                f"R({k + 1})-R({k})={after:.12g} > R({k})-R({k - 1})={before:.12g}",
            )
    return CurveValidation(True)


def _table_of(instance):
    return revenue_table(instance.curve, sum(b.capacity for b in instance.bids))


def unit_f_oracle(instance):
    """Best single-price buy by subset enumeration (unit capacities)."""
    vals = [b.valuation for b in instance.bids]
    rt = _table_of(instance)
    best = 0.0
    n = len(vals)
    for mask in range(1, 1 << n):
        chosen = [vals[i] for i in range(n) if (mask >> i) & 1]
        profit = rt[len(chosen)] - len(chosen) * max(chosen)
        if profit > best:
            best = profit
    return best


def unit_f2_oracle(instance):
    """Subset enumeration restricted to at least two winners."""
    vals = [b.valuation for b in instance.bids]
    rt = _table_of(instance)
    n = len(vals)
    best = None
    for mask in range(1, 1 << n):
        chosen = [vals[i] for i in range(n) if (mask >> i) & 1]
        if len(chosen) < 2:
            continue
        profit = rt[len(chosen)] - len(chosen) * max(chosen)
        if best is None or profit > best:
            best = profit
    return best


def unit_t_oracle(instance):
    """Best pay-your-bid buy by subset enumeration (unit capacities)."""
    vals = [b.valuation for b in instance.bids]
    rt = _table_of(instance)
    best = 0.0
    n = len(vals)
    for mask in range(1, 1 << n):
        chosen = sorted(vals[i] for i in range(n) if (mask >> i) & 1)
        profit = rt[len(chosen)] - sum(chosen)
        if profit > best:
            best = profit
    return best


def _single_price_feasible(bids, alloc):
    """A uniform-price outcome must fully buy out every seller strictly
    cheaper than the clearing price (the marginal winner's valuation)."""
    winners = [i for i, x in enumerate(alloc) if x > 0]
    if not winners:
        return None
    price = max(bids[i].valuation for i in winners)
    for i, b in enumerate(bids):
        if b.valuation < price and alloc[i] != b.capacity:
            return None
    return price


def cap_f_oracle(instance):
    """Best single-price buy by allocation-vector enumeration."""
    bids = instance.bids
    rt = _table_of(instance)
    best = 0.0
    for alloc in product(*(range(b.capacity + 1) for b in bids)):
        price = _single_price_feasible(bids, alloc)
        if price is None:
            continue
        u = sum(alloc)
        profit = rt[u] - u * price
        if profit > best:
            best = profit
    return best


def cap_f2_oracle(instance):
    """Allocation-vector enumeration restricted to at least two winning sellers."""
    bids = instance.bids
    rt = _table_of(instance)
    best = None
    for alloc in product(*(range(b.capacity + 1) for b in bids)):
        if sum(1 for x in alloc if x > 0) < 2:
            continue
        price = _single_price_feasible(bids, alloc)
        if price is None:
            continue
        u = sum(alloc)
        profit = rt[u] - u * price
        if best is None or profit > best:
            best = profit
    return best


def cap_t_oracle(instance):
    """Best pay-your-bid buy over all allocation vectors."""
    bids = instance.bids
    rt = _table_of(instance)
    best = 0.0
    for alloc in product(*(range(b.capacity + 1) for b in bids)):
        u = sum(alloc)
        profit = rt[u] - sum(b.valuation * x for b, x in zip(bids, alloc))
        if profit > best:
            best = profit
    return best


def per_unit_single_price_scan(pairs, rtable, lo=0, include_empty=True):
    """Best single-price buy over unit counts u with lo < u <= total supply,
    by a walk over every unit.

    ``pairs`` is a (valuation, capacity) sequence sorted ascending; unit u is
    priced at the valuation of the seller supplying it. A count replaces the
    best only if strictly better, so ties resolve to the smallest count.
    Returns (profit, units, winners, price); with ``include_empty`` the
    no-trade option (0.0, 0, 0, 0.0) is a candidate, else None when no count
    lies above ``lo``. It shares no code with
    :func:`procure.benchmarks.scan_single_price`, which must return the same
    four values: F is ``lo=0``, F^(2) is ``lo`` the cheapest seller's
    capacity with no no-trade option.
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


def per_unit_block_optimum(rtable, v, q, c):
    """(profit, u): the first maximal ``R(u) - u * v`` over the counts
    c+1..c+q, walking every unit. It shares no code with
    :func:`procure.benchmarks.block_optimum`, which must return the same
    float and count without reading most of these units."""
    best, best_u = -inf, c + 1
    for u in range(c + 1, c + q + 1):
        profit = rtable[u] - u * v
        if profit > best:
            best, best_u = profit, u
    return best, best_u


def min_side_profit_oracle(instance, flips, unit=True):
    """Profit the split auction must earn on a fixed draw: the smaller of
    the two sides' single-price optima (their common value when equal)."""
    side_a_positions = [i for i, f in enumerate(flips) if f]
    side_b_positions = [i for i, f in enumerate(flips) if not f]

    def side_f(positions):
        if not positions:
            return 0.0
        sub = _SubInstance(instance, positions)
        return unit_f_oracle(sub) if unit else cap_f_oracle(sub)

    return min(side_f(side_a_positions), side_f(side_b_positions))


class _SubInstance:
    """Just enough of the Instance surface for the oracles above."""

    def __init__(self, instance, positions):
        self.bids = [instance.bids[i] for i in positions]
        self.curve = instance.curve


def pepa_expectation_oracle(instance, unit=True):
    """Exact expected profit of the split auction by full partition
    enumeration, with side optima from the subset/allocation oracles."""
    n = instance.n
    total = 0.0
    for mask in range(1 << n):
        flips = [bool((mask >> i) & 1) for i in range(n)]
        total += min_side_profit_oracle(instance, flips, unit=unit)
    return total / (1 << n)


def per_unit_profit_engine(instance):
    """The split auction's profit on a coin mask, by per-unit scans.

    Mask bit i set puts the bidder with the i-th smallest id on side b'.
    Each side's single-price optimum is a scan over every unit it holds,
    and each extraction scans the other side's units downward, with the
    same float expressions and ``EPS`` tolerance as the library. It shares
    no code with :func:`procure.mechanisms.partition_profit_engine`, which
    must return the same float on every mask.
    """
    rtable = _table_of(instance)
    by_id_rank = sorted(range(instance.n), key=lambda pos: instance.bids[pos].id)
    rank_of_pos = {pos: rank for rank, pos in enumerate(by_id_rank)}
    sorted_items = [
        (b.valuation, b.capacity, rank_of_pos[instance.position_of(b.id)])
        for b in instance.sorted_bids
    ]

    def side_optimum(side):
        best = 0.0
        u = 0
        for v, q, _ in side:
            for _ in range(q):
                u += 1
                p = rtable[u] - u * v
                if p > best:
                    best = p
        return best

    def extracted(side, target):
        # the largest unit count whose marginal seller qualifies
        u = sum(q for _, q, _ in side)
        for v, q, _ in reversed(side):
            for _ in range(q):
                if v <= (rtable[u] - target) / u + EPS:
                    return target
                u -= 1
        return 0.0

    def profit_for_mask(mask):
        side_a = [item for item in sorted_items if (mask >> item[2]) & 1]
        side_b = [item for item in sorted_items if not (mask >> item[2]) & 1]
        best_a = side_optimum(side_a)
        best_b = side_optimum(side_b)
        profit_a = extracted(side_a, best_b)
        profit_b = extracted(side_b, best_a)
        return profit_a if profit_a >= profit_b else profit_b

    return profit_for_mask


def enumerated_expected_profit(instance):
    """Exact expected profit of the split auction by running
    :func:`per_unit_profit_engine` on every one of the 2^n coin masks.

    It is the reference the exact expectation is compared against bit for
    bit.
    """
    engine = per_unit_profit_engine(instance)
    n = instance.n
    return fsum(engine(mask) for mask in range(1 << n)) / (1 << n)


def unit_qualifies(v, price):
    """Whether a unit count's marginal seller, asking v, accepts the price
    offered at that count, up to the library's ``EPS`` tolerance."""
    return v <= price + EPS


def per_unit_extraction(sorted_bids, rtable, target):
    """Extraction of ``target`` by a scan over every unit count, from the
    total supply down.

    ``sorted_bids`` are sorted by (valuation, id). The first count u whose
    marginal seller qualifies (:func:`unit_qualifies` at the price
    (R(u) - target) / u) is bought at that price per unit: every cheaper
    seller in full, the marginal seller the rest. It shares no code with
    :func:`procure.extraction.run_extraction`, which must return the same
    result, price bit for bit.
    """
    target = float(target)
    u = sum(b.capacity for b in sorted_bids)
    for j in range(len(sorted_bids) - 1, -1, -1):
        bid = sorted_bids[j]
        for _ in range(bid.capacity):
            price = (rtable[u] - target) / u
            if unit_qualifies(bid.valuation, price):
                cheaper = sorted_bids[:j]
                winners = tuple((b.id, b.capacity) for b in cheaper)
                marginal = (bid.id, u - sum(b.capacity for b in cheaper))
                return ExtractionResult(winners=winners + (marginal,), price_per_unit=price, profit=target)
            u -= 1
    return ExtractionResult(winners=(), price_per_unit=0.0, profit=0.0)


def equal_margin_ratio_oracle(k):
    """Expected min(side sizes)/k over all 2^k fair splits, exactly."""
    num = sum(comb(k, i) * min(i, k - i) for i in range(k + 1))
    return Fraction(num, k * 2**k)
