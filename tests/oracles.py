"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's scan implementations: the
single-price oracles enumerate winner sets (subsets for unit capacities,
whole allocation vectors for capacitated ones) and price each candidate at
the highest winning valuation, keeping only candidates a uniform-price
auction could actually produce.
"""

import sys
from fractions import Fraction
from itertools import product
from math import comb, fsum, inf

from procure.extraction import ExtractionResult
from procure.mechanisms import resolve_mechanism
from procure.model import EPS, Bid, Instance
from procure.simulation import (
    GAIN_TOL,
    AuditReport,
    AuditViolation,
    ReportedBid,
    _capacity_grid,
    _on_one_scale,
    _valuation_grid,
)


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
    """Concavity of R over 0..max_q by a check of every marginal: the
    message that :func:`procure.model.validate_curve` raises at the first
    k >= 1 with R(k+1) - R(k) > R(k) - R(k-1) + EPS, or None if there is
    none. The library checks the curve's slopes instead and must agree
    wherever rounding does not move a marginal by a sizeable part of EPS."""
    table = revenue_table(curve, max_q)
    for k in range(1, max_q):
        before, after = table[k] - table[k - 1], table[k + 1] - table[k]
        if after > before + EPS:
            return (
                f"revenue curve rejected: marginal revenue increases at k={k}: "
                f"R({k + 1})-R({k})={after:.12g} > R({k})-R({k - 1})={before:.12g}"
            )
    return None


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
        (b.valuation, b.capacity, rank_of_pos[b.id])
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


def per_threshold_counting(instance):
    """E[min(f', f'')] by counting, for each threshold t, the draws on which
    both sides reach t.

    It runs the whole DP, from the cheapest seller on, for every threshold.
    :func:`procure.simulation._min_side_by_counting` re-runs it only from the
    cheapest seller whose rows change, and not at all for a threshold that
    changes no row, and must return the same float, bit for bit.

    Side b' reaches t > 0 iff some member j has g[j][c_j] >= t, where
    g[j][c] is the best single-price profit whose marginal unit falls in the
    j-th cheapest seller's block after c cheaper units. The oracle tabulates
    it at every count c in 0..before_j, the supply of the sellers cheaper
    than j, by :func:`per_unit_block_optimum` over :func:`revenue_table`,
    so it shares no threshold code with the library. So the number of
    draws on which both sides reach t is 2^n - 2 * fail(t) + fail_both(t):
    fail(t) counts the draws on which b' stays below t (b'' alike, by
    symmetry), fail_both(t) those on which both do. Each count is a DP
    over the sellers in ascending order whose state c is the number of
    units on b' so far. Only the positive g-values can be thresholds. They
    are swept in ascending order until no draw reaches one, and t times the
    number of draws whose minimum is t is summed exactly, as ints on one
    power-of-two scale (:func:`_on_one_scale`), and rounded once by an int
    division: the same float as ``fsum`` over all 2^n draws divided by 2^n.

    A DP row holds one count per state c. It is packed into one int,
    ``width`` bits per state, so moving every count of a row by q states is
    one shift by q * width bits, and a seller's step is a few shifts, masks
    and adds instead of a loop over c. The masks ``on_a[j]`` and ``on_b[j]``
    select the states in which seller j may join b' (g[j][c] < t) or b''
    (g[j][before_j - c] < t) and stay below t; they grow as the sweep
    passes each g-value. No count exceeds 2^n < 2^width, so fields never
    carry into each other and the total of a row is the int modulo
    2^width - 1.
    """
    rtable = _table_of(instance)
    g = []
    before = 0
    for b in instance.sorted_bids:
        g.append([per_unit_block_optimum(rtable, b.valuation, b.capacity, c)[0] for c in range(before + 1)])
        before += b.capacity
    n = instance.n
    width = n + 1
    field = (1 << width) - 1
    on_a = [0] * n
    on_b = [0] * n

    def allow(j: int, c: int) -> None:
        # seller j may now stay below t on a side holding c cheaper units
        on_a[j] |= field << (c * width)
        on_b[j] |= field << ((len(g[j]) - 1 - c) * width)

    sweep = []
    for j, gj in enumerate(g):
        for c, value in enumerate(gj):
            if value > 0:
                sweep.append((value, j, c))
            else:
                allow(j, c)
    sweep.sort()
    shifts = [b.capacity * width for b in instance.sorted_bids]
    levels = []  # (t, draws on which both sides reach t), t ascending
    k = 0
    while k < len(sweep):
        t = sweep[k][0]
        fail = fail_both = 1
        for a, b, s in zip(on_a, on_b, shifts):
            fail += (fail & a) << s
            fail_both = (fail_both & b) + ((fail_both & a) << s)
        reached = (1 << n) - 2 * (fail % field) + fail_both % field
        if not reached:
            break
        levels.append((t, reached))
        while k < len(sweep) and sweep[k][0] == t:
            allow(*sweep[k][1:])
            k += 1
    ts, scale = _on_one_scale([t for t, _ in levels])
    total = sum(t * (reached - above) for t, (_, reached), (_, above) in zip(ts, levels, levels[1:] + [(None, 0)]))
    return total / (scale << n)


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


def per_unit_split_auction(instance, mask):
    """The split auction's outcome on the coin draw ``mask``, by per-unit
    scans: (allocation, payments per unit, profit, chosen side), the first
    two in bid order.

    Bit i of ``mask`` set puts the bid at position i on side b'. Each side,
    in (valuation, id) order, takes its optimum from
    :func:`per_unit_single_price_scan` and extracts the other side's
    optimum with :func:`per_unit_extraction` over :func:`revenue_table`.
    Both extractions always run, and the one with the higher profit is
    kept, b' on a tie; its winners are paid its price per unit. It shares
    no code with :mod:`procure.mechanisms`, whose
    :func:`~procure.mechanisms.split_auction` must give the same fields on
    every mask, truthful or deviating.
    """
    rtable = _table_of(instance)
    ordered = sorted(instance.bids, key=lambda b: (b.valuation, b.id))
    sides = [b for b in ordered if mask >> b.id & 1], [b for b in ordered if not mask >> b.id & 1]
    f_a, f_b = (per_unit_single_price_scan([(b.valuation, b.capacity) for b in side], rtable)[0] for side in sides)
    res_a = per_unit_extraction(sides[0], rtable, f_b)
    res_b = per_unit_extraction(sides[1], rtable, f_a)
    chosen, name = (res_a, "b_prime") if res_a.profit >= res_b.profit else (res_b, "b_double_prime")
    units = dict(chosen.winners)
    allocation = tuple(units.get(b.id, 0) for b in instance.bids)
    payments = tuple(chosen.price_per_unit if x else 0.0 for x in allocation)
    return allocation, payments, chosen.profit, name


def _per_unit_fill(instance, order, units):
    """The allocation, in bid order, of buying ``units`` units one at a
    time, each from the first bid of ``order`` with capacity left."""
    allocation = [0] * len(instance.bids)
    for _ in range(units):
        seller = next((b for b in order if allocation[b.id] < b.capacity), None)
        if seller is None:
            break
        allocation[seller.id] += 1
    return allocation


def _per_unit_outcome(instance, rtable, allocation, price_of):
    """(allocation, payments per unit, profit), the first two in bid order,
    each winner paid ``price_of(bid)`` per unit. The profit is R(total)
    minus the payments summed one by one in bid order."""
    payments = tuple(price_of(b) if x else 0.0 for b, x in zip(instance.bids, allocation))
    paid = 0.0
    for x, p in zip(allocation, payments):
        paid += p * x
    return tuple(allocation), payments, rtable[sum(allocation)] - paid


def per_unit_kth_price(instance, cap):
    """The Kth-price auction's outcome at demand cap ``cap``, unit by unit:
    (allocation, payments per unit, profit), or None when some seller wins
    and none is left out, so the price is undefined.

    Units are bought one at a time from the cheapest seller by (valuation,
    id) with capacity left, up to ``cap`` units, and every winner is paid
    the valuation of the first seller in that order that sells nothing. It
    shares no code with :func:`procure.mechanisms.run_kth_price`, which
    must give the same fields and raise exactly when this returns None.
    """
    ordered = sorted(instance.bids, key=lambda b: (b.valuation, b.id))
    allocation = _per_unit_fill(instance, ordered, cap)
    losers = [b for b in ordered if not allocation[b.id]]
    if not losers and any(allocation):
        return None
    return _per_unit_outcome(instance, _table_of(instance), allocation, lambda b: losers[0].valuation)


def per_unit_bid_independent(instance, threshold):
    """The two-phase bid-independent auction's outcome, unit by unit:
    (allocation, payments per unit, profit).

    ``threshold`` is a posted price, offered to every bidder, or ``"opp"``:
    each bidder is offered the price of :func:`per_unit_single_price_scan`
    over the other bids in (valuation, id) order. A bidder survives if its
    ask is at most its offer plus ``EPS``. Phase II walks the survivors in
    (offer, id) order unit by unit, adding each unit's offer to the cost,
    and keeps the first count of largest R(u) - cost, no trade included;
    those units are bought one at a time in that order, and each winner is
    paid its offer. It shares no code with
    :func:`procure.mechanisms.run_bid_independent`, which must give the
    same fields.
    """
    rtable = _table_of(instance)
    offers = {}
    for b in instance.bids:
        if threshold == "opp":
            masked = sorted((o for o in instance.bids if o.id != b.id), key=lambda o: (o.valuation, o.id))
            offers[b.id] = per_unit_single_price_scan([(o.valuation, o.capacity) for o in masked], rtable)[3]
        else:
            offers[b.id] = float(threshold)
    survivors = [b for b in instance.bids if b.valuation <= offers[b.id] + EPS]
    survivors.sort(key=lambda b: (offers[b.id], b.id))
    best, best_u, u, cost = 0.0, 0, 0, 0.0
    for b in survivors:
        for _ in range(b.capacity):
            u += 1
            cost += offers[b.id]
            if rtable[u] - cost > best:
                best, best_u = rtable[u] - cost, u
    return _per_unit_outcome(instance, rtable, _per_unit_fill(instance, survivors, best_u), lambda b: offers[b.id])


def equal_margin_ratio_oracle(k):
    """Expected min(side sizes)/k over all 2^k fair splits, exactly."""
    num = sum(comb(k, i) * min(i, k - i) for i in range(k + 1))
    return Fraction(num, k * 2**k)


def per_seed_partition_mask(n, seed):
    """The n coin bits of a run seed, one SplitMix64 stream per seed.

    The seed (folded into 64 bits word by word if wider) is stepped by the
    golden-ratio increment and mixed once per 64 coins, each step on plain
    64-bit ints. It shares no code with
    :func:`procure.mechanisms.partition_masks`, which packs many seeds into
    the lanes of one int and must give the same masks.
    """
    m64 = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
        return z ^ (z >> 31)

    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    state = seed & m64
    hi = seed >> 64
    while hi:
        state = mix(state ^ (hi & m64))
        hi >>= 64
    out = 0
    for shift in range(0, n, 64):
        state = (state + 0x9E3779B97F4A7C15) & m64
        out |= mix(state) << shift
    return out & ((1 << n) - 1)


def _run_with_bid(mech, instance, position, valuation, capacity, seed):
    """A whole run of ``mech`` on a fresh instance whose bid at
    ``position`` asks ``valuation`` for ``capacity`` units."""
    bids = list(instance.bids)
    bids[position] = Bid(valuation, capacity, bids[position].id)
    return mech.run(Instance(bids=tuple(bids), curve=instance.curve), seed)


def _utility(run, position, valuation):
    x = run.outcome.allocation[position]
    return 0.0 if x == 0 else (run.outcome.payment_per_unit[position] - valuation) * x


def black_box_audit(instance, mechanism, dims=("valuation",), seed=0, demand_cap=None):
    """The truthfulness audit by one whole mechanism run per deviation.

    Every deviation redraws the coins, re-sorts the bids and rescans and
    re-extracts both sides. It shares the probe grids and ``GAIN_TOL`` with
    :func:`procure.simulation.audit_truthfulness`, but no deviation
    evaluator, and the report must be the same field for field.
    """
    mech = resolve_mechanism(mechanism, demand_cap=demand_cap)
    truth_run = mech.run(instance, seed)
    tested = 0
    violations = []
    for pos, bid in enumerate(instance.bids):
        base_utility = _utility(truth_run, pos, bid.valuation)
        deviations = []
        if "valuation" in dims:
            deviations.extend((v, bid.capacity) for v in _valuation_grid(instance, pos, truth_run))
        if "capacity" in dims:
            deviations.extend((bid.valuation, q) for q in _capacity_grid(bid.capacity))
        for dev_v, dev_q in deviations:
            tested += 1
            dev_run = _run_with_bid(mech, instance, pos, dev_v, dev_q, seed)
            gain = _utility(dev_run, pos, bid.valuation) - base_utility
            if gain > GAIN_TOL:
                violations.append(
                    AuditViolation(
                        bidder=bid.id,
                        dim="capacity" if dev_q != bid.capacity else "valuation",
                        true_bid=ReportedBid(bid.valuation, bid.capacity),
                        deviating_bid=ReportedBid(dev_v, dev_q),
                        gain=gain,
                    )
                )
    return AuditReport(mechanism=mechanism, deviations_tested=tested, violations=tuple(violations))


def black_box_monotonicity(instance, mechanism, grid=64, seed=0, demand_cap=None):
    """The allocation monotonicity sweep by one whole mechanism run per
    swept valuation; :func:`procure.simulation.audit_allocation_monotonicity`
    must report the same."""
    mech = resolve_mechanism(mechanism, demand_cap=demand_cap)
    top = min(2.0 * max(b.valuation for b in instance.bids), sys.float_info.max / grid) or 1.0
    values = [top * k / (grid - 1) for k in range(grid)]
    violations = []
    for pos, bid in enumerate(instance.bids):
        xs = [_run_with_bid(mech, instance, pos, v, bid.capacity, seed).outcome.allocation[pos] for v in values]
        for (prev_v, prev_x), (v, x) in zip(zip(values, xs), zip(values[1:], xs[1:])):
            if x > prev_x:
                violations.append(
                    AuditViolation(
                        bidder=bid.id,
                        dim="valuation",
                        true_bid=ReportedBid(prev_v, bid.capacity),
                        deviating_bid=ReportedBid(v, bid.capacity),
                        gain=float(x - prev_x),
                    )
                )
    return AuditReport(mechanism=mechanism, deviations_tested=grid * instance.n, violations=tuple(violations))
