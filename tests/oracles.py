"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's scan implementations: the
single-price oracles enumerate winner sets (subsets for unit capacities,
whole allocation vectors for capacitated ones) and price each candidate at
the highest winning valuation, keeping only candidates a uniform-price
auction could actually produce.
"""

from fractions import Fraction
from itertools import product
from math import comb, fsum

from procure.mechanisms import partition_profit_engine


def unit_f_oracle(instance):
    """Best single-price buy by subset enumeration (unit capacities)."""
    vals = [b.valuation for b in instance.bids]
    rt = instance.revenue_table
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
    rt = instance.revenue_table
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
    rt = instance.revenue_table
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
    rt = instance.revenue_table
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
    rt = instance.revenue_table
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
    rt = instance.revenue_table
    best = 0.0
    for alloc in product(*(range(b.capacity + 1) for b in bids)):
        u = sum(alloc)
        profit = rt[u] - sum(b.valuation * x for b, x in zip(bids, alloc))
        if profit > best:
            best = profit
    return best


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
        self.revenue_table = instance.revenue_table


def pepa_expectation_oracle(instance, unit=True):
    """Exact expected profit of the split auction by full partition
    enumeration, with side optima from the subset/allocation oracles."""
    n = instance.n
    total = 0.0
    for mask in range(1 << n):
        flips = [bool((mask >> i) & 1) for i in range(n)]
        total += min_side_profit_oracle(instance, flips, unit=unit)
    return total / (1 << n)


def enumerated_expected_profit(instance):
    """Exact expected profit of the split auction by running the library's
    partition engine on every one of the 2^n coin masks.

    Unlike the oracles above this shares the engine's scans; it is the
    reference the threshold-counting expectation is compared against bit
    for bit.
    """
    engine = partition_profit_engine(instance)
    n = instance.n
    return fsum(engine(mask) for mask in range(1 << n)) / (1 << n)


def equal_margin_ratio_oracle(k):
    """Expected min(side sizes)/k over all 2^k fair splits, exactly."""
    num = sum(comb(k, i) * min(i, k - i) for i in range(k + 1))
    return Fraction(num, k * 2**k)
