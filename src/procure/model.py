"""Core domain model: bids, revenue curves, instances, and auction outcomes.

Money amounts and valuations are floats; unit counts are ints. All threshold
comparisons in this package go through :func:`leq`, which absorbs float noise
up to ``EPS`` so that exact-profit identities stay stable at boundaries.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

EPS = 1e-9


def leq(a: float, b: float) -> bool:
    """True iff a <= b up to the package-wide money tolerance."""
    return a <= b + EPS


class InstanceFormatError(ValueError):
    """Raised when an instance file violates the on-disk schema or a type invariant."""


@dataclass(frozen=True)
class CurveValidation:
    ok: bool
    violation_at: int | None = None
    message: str = ""


@dataclass(frozen=True)
class RevenueCurve:
    """Resale revenue R(q) for integer unit counts, with R(0) = 0.

    Kinds:
      * ``linear``: R(q) = r * q
      * ``capped``: R(q) = r * min(q, cap); constant past the cap
      * ``pwl``: piecewise linear through (0, 0) and the given (q, R)
        breakpoints, extended past the last breakpoint at the final
        segment's slope

    Its affine pieces (:attr:`pieces`) let a scan read a few entries of
    R(0..m) per seller block instead of one per unit.

    Construction rejects negative marginal revenue (revenue must be
    non-decreasing). Concavity is a separate, instance-level check done by
    :func:`validate_curve`, so that externally supplied curves can be
    inspected and rejected with a precise violation index.
    """

    kind: str
    r: float = 0.0
    cap: int = 0
    points: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind in ("linear", "capped") and not math.isfinite(self.r):
            raise ValueError(f"{self.kind} curve needs a finite slope r, got {self.r}")
        if self.kind == "linear":
            if not (self.r >= 0):
                raise ValueError(f"linear curve needs slope r >= 0, got {self.r}")
        elif self.kind == "capped":
            if not (self.r >= 0):
                raise ValueError(f"capped curve needs slope r >= 0, got {self.r}")
            if not (isinstance(self.cap, int) and self.cap >= 1):
                raise ValueError(f"capped curve needs integer cap >= 1, got {self.cap}")
        elif self.kind == "pwl":
            if not self.points:
                raise ValueError("pwl curve needs at least one breakpoint")
            prev_q, prev_rev = 0, 0.0
            for i, (q, rev) in enumerate(self.points):
                if not math.isfinite(rev):
                    raise ValueError(f"pwl breakpoint revenue points[{i}][1] must be finite, got {rev}")
                if not (isinstance(q, int) and q > prev_q):
                    raise ValueError(f"pwl breakpoint quantities must be strictly increasing ints, got {q} after {prev_q}")
                if rev < prev_rev:
                    raise ValueError(f"pwl revenue must be non-decreasing, got {rev} after {prev_rev}")
                prev_q, prev_rev = q, rev
        else:
            raise ValueError(f"unknown curve kind {self.kind!r}")

    def at(self, q: int) -> float:
        """R(q) for a non-negative integer unit count."""
        if q < 0:
            raise ValueError(f"unit count must be >= 0, got {q}")
        if q == 0:
            return 0.0
        if self.kind == "linear":
            return self.r * q
        if self.kind == "capped":
            return self.r * min(q, self.cap)
        for last, base_q, base_rev, slope in self._pwl_segments:
            if q <= last:
                return base_rev + slope * (q - base_q)

    @cached_property
    def _pwl_segments(self) -> tuple[tuple[float, int, float, float], ...]:
        """A pwl curve's segments as (last count, first point's count, first
        point's revenue, slope): one per breakpoint, walked from the implied
        (0, 0) origin, then the extension past the last breakpoint at the
        final segment's slope (last count ``math.inf``). The one place the
        slopes are computed, for :meth:`at` and :attr:`pieces`.
        """
        segments = []
        prev_q, prev_rev = 0, 0.0
        for bq, brev in self.points:
            segments.append((bq, prev_q, prev_rev, (brev - prev_rev) / (bq - prev_q)))
            prev_q, prev_rev = bq, brev
        segments.append((math.inf, prev_q, prev_rev, segments[-1][3]))
        return tuple(segments)

    @cached_property
    def pieces(self) -> tuple[tuple[float, float], ...]:
        """R's affine pieces in order, as (last unit count, slope) pairs.

        A piece covers the counts after the previous piece's last count up
        to its own; the last piece has no end (``math.inf``). On a piece,
        :meth:`at` computes R(u) as a fixed base revenue plus this slope
        float times (u - base count), so the exact value of that expression
        grows by the slope per unit. A linear curve is one piece, a capped
        curve two (the plateau has slope 0.0: R is the one float r * cap
        there), and a pwl curve one per breakpoint plus its extension.
        Cached per curve object.
        """
        if self.kind == "linear":
            return ((math.inf, self.r),)
        if self.kind == "capped":
            return ((self.cap, self.r), (math.inf, 0.0))
        return tuple((last, slope) for last, _, _, slope in self._pwl_segments)

    def table(self, max_q: int) -> tuple[float, ...]:
        """R(0..max_q) as a tuple, for scan loops."""
        return tuple(self.at(q) for q in range(max_q + 1))

    @cached_property
    def _certified(self) -> list:
        """Holder for R(0..M), the longest table :func:`validate_curve` has
        accepted for this curve object, and its :class:`AverageRevenueMaxima`
        (None until first asked for).

        Kept per object, not keyed on the curve's fields: equal curves can
        have different tables (``linear_curve(-0.0) == linear_curve(0.0)``).
        """
        return [(), None]

    def certified_table(self, max_q: int) -> tuple[float, ...]:
        """R(0..max_q), after certifying the curve concave over 0..max_q.

        Certification is prefix-closed: a curve accepted over 0..M is
        accepted over 0..m for every m <= M, and its table for m is the first
        m + 1 entries of the table for M. So this runs :func:`validate_curve`
        only when max_q is past every supply certified so far, and otherwise
        returns a slice of the certified table. Raises ``ValueError`` naming
        the violation when the curve is rejected.
        """
        certified = self._certified
        if max_q >= len(certified[0]):
            check = validate_curve(self, max_q)
            if not check.ok:
                raise ValueError(f"revenue curve rejected: {check.message}")
        table = certified[0]
        return table if len(table) == max_q + 1 else table[: max_q + 1]

    def certified_maxima(self, max_q: int) -> AverageRevenueMaxima:
        """The :class:`AverageRevenueMaxima` of the certified table, which
        covers 0..max_q; built once per certified table."""
        self.certified_table(max_q)
        certified = self._certified
        if certified[1] is None:
            certified[1] = AverageRevenueMaxima(certified[0])
        return certified[1]


class AverageRevenueMaxima:
    """Largest average revenue R(u) / u over aligned ranges of unit counts.

    ``levels[k][i]`` is the largest computed ``R(u) / u`` over the counts
    i 2^k <= u < (i + 1) 2^k of the table, u = 0 and the padding past the
    table counting as -inf. Built in O(M) from a table of finite
    non-negative revenues. Over counts a <= u <= b of a node of level k,
    (R(u) - P) / u <= levels[k][i] - P / b for any P >= 0, which lets a scan
    rule out a whole range with one comparison
    (:func:`procure.extraction.run_extraction`). Every curve kind's table is
    finite and non-negative: R(0) = 0 and the slopes are non-negative.
    """

    __slots__ = ("levels",)

    def __init__(self, rtable):
        level = array("d", [-math.inf])
        level.extend(map(operator.truediv, rtable[1:], range(1, len(rtable))))
        self.levels = [level]
        while len(level) > 1:
            if len(level) % 2:
                level.append(-math.inf)
            level = array("d", map(max, level[::2], level[1::2]))
            self.levels.append(level)


def linear_curve(r: float) -> RevenueCurve:
    return RevenueCurve(kind="linear", r=r)


def capped_curve(r: float, cap: int) -> RevenueCurve:
    return RevenueCurve(kind="capped", r=r, cap=cap)


def pwl_curve(points) -> RevenueCurve:
    return RevenueCurve(kind="pwl", points=tuple((int(q), float(rev)) for q, rev in points))


def validate_curve(curve: RevenueCurve, max_q: int) -> CurveValidation:
    """Certify R(0) = 0 and non-increasing marginals over 0..max_q.

    On rejection, ``violation_at`` is the first k >= 1 with
    R(k+1) - R(k) > R(k) - R(k-1).

    The check is prefix-closed: acceptance over 0..max_q implies acceptance
    over every shorter range. Each R(k) is evaluated once, into the table
    the marginals are checked on; on acceptance that table becomes the
    curve's certified table (see :meth:`RevenueCurve.certified_table`) if it
    is longer than the one already held.
    """
    if max_q < 1:
        raise ValueError(f"max_q must be >= 1, got {max_q}")
    table = [curve.at(0)]
    if table[0] != 0.0:
        return CurveValidation(False, 0, "R(0) must be 0")
    prev_marginal = None
    for k in range(1, max_q + 1):
        rev = curve.at(k)
        marginal = rev - table[-1]
        if prev_marginal is not None and marginal > prev_marginal + EPS:
            return CurveValidation(
                False, k - 1,
                f"marginal revenue increases at k={k - 1}: "
                f"R({k})-R({k - 1})={marginal:.12g} > R({k - 1})-R({k - 2})={prev_marginal:.12g}",
            )
        prev_marginal = marginal
        table.append(rev)
    certified = curve._certified
    if len(table) > len(certified[0]):
        certified[:] = [tuple(table), None]
    return CurveValidation(True)


@dataclass(frozen=True)
class Bid:
    """One seller's offer: asking price per unit and how many units they can supply."""

    valuation: float
    capacity: int = 1
    id: int = 0

    def __post_init__(self):
        v = float(self.valuation)
        if not (v >= 0.0) or v != v or v == float("inf"):
            raise ValueError(f"valuation must be a finite non-negative number, got {self.valuation}")
        if not (isinstance(self.capacity, int) and self.capacity >= 1):
            raise ValueError(f"capacity must be an integer >= 1, got {self.capacity}")


@dataclass(frozen=True)
class Instance:
    """A complete auction input: the bid vector plus the buyer's revenue curve.

    Construction certifies the model assumptions: at least one bid, unique
    seller ids, and a revenue curve that is concave with R(0) = 0 over the
    instance's total supply m. Instances are immutable; sorted views are
    derived on demand and cached.

    Certification is prefix-closed, so the curve object keeps the longest
    table it has been certified over and every instance sharing that curve
    with a supply no larger (such as the deviations an audit derives) takes
    its ``revenue_table`` as a slice of it, without evaluating the curve
    again. See :meth:`RevenueCurve.certified_table`.
    """

    bids: tuple[Bid, ...]
    curve: RevenueCurve

    def __post_init__(self):
        if not self.bids:
            raise ValueError("instance needs at least one bid")
        ids = [b.id for b in self.bids]
        if len(set(ids)) != len(ids):
            raise ValueError("seller ids must be unique")
        self.revenue_table  # certifies the curve over 0..m or raises

    @property
    def n(self) -> int:
        return len(self.bids)

    @cached_property
    def total_supply(self) -> int:
        return sum(b.capacity for b in self.bids)

    @cached_property
    def is_unit_capacity(self) -> bool:
        return all(b.capacity == 1 for b in self.bids)

    @cached_property
    def sorted_bids(self) -> tuple[Bid, ...]:
        """Bids by ascending valuation, ties by ascending id."""
        return tuple(sorted(self.bids, key=lambda b: (b.valuation, b.id)))

    @cached_property
    def revenue_table(self) -> tuple[float, ...]:
        """R(0..m) for the scan loops: a prefix of the curve's certified table."""
        return self.curve.certified_table(self.total_supply)

    @cached_property
    def revenue_maxima(self) -> AverageRevenueMaxima:
        """Average-revenue maxima over a table of which ``revenue_table`` is a prefix."""
        return self.curve.certified_maxima(self.total_supply)

    def position_of(self, seller_id: int) -> int:
        return self._pos_by_id[seller_id]

    @cached_property
    def _pos_by_id(self) -> dict[int, int]:
        return {b.id: pos for pos, b in enumerate(self.bids)}


def make_instance(valuations, capacities=None, curve: RevenueCurve | None = None) -> Instance:
    """Convenience builder: ids are assigned 0..n-1 in list order."""
    if curve is None:
        raise ValueError("curve is required")
    if capacities is None:
        capacities = [1] * len(valuations)
    bids = tuple(Bid(float(v), int(q), i) for i, (v, q) in enumerate(zip(valuations, capacities)))
    return Instance(bids=bids, curve=curve)


@dataclass(frozen=True)
class AuctionOutcome:
    """Per-seller allocations and per-unit payments, plus the buyer's profit.

    Indexed by position in the owning instance's bid order. Feasibility and
    the profit identity profit = R(sum x) - sum p_i * x_i are enforced by
    :func:`make_outcome`.
    """

    allocation: tuple[int, ...]
    payment_per_unit: tuple[float, ...]
    profit: float

    def units(self) -> int:
        return sum(self.allocation)

    def to_json_dict(self) -> dict:
        return {
            "allocation": list(self.allocation),
            "payment_per_unit": list(self.payment_per_unit),
            "profit": self.profit,
        }


def make_outcome(instance: Instance, allocation, payment_per_unit, profit: float | None = None) -> AuctionOutcome:
    """Build an outcome, checking feasibility, IR, and the profit identity.

    A mechanism that knows its exact profit (e.g. a target it extracted) may
    declare it; the declared value must agree with the recomputation
    R(sum x) - sum p_i * x_i to within EPS.
    """
    allocation = tuple(int(x) for x in allocation)
    payment_per_unit = tuple(float(p) for p in payment_per_unit)
    if len(allocation) != instance.n or len(payment_per_unit) != instance.n:
        raise ValueError("allocation/payment length must match the number of bids")
    total = 0
    paid = 0.0
    for bid, x, p in zip(instance.bids, allocation, payment_per_unit):
        if x < 0 or x > bid.capacity:
            raise ValueError(f"seller {bid.id}: allocation {x} outside [0, {bid.capacity}]")
        if x > 0 and not leq(bid.valuation, p):
            raise ValueError(f"seller {bid.id}: payment {p} below reported valuation {bid.valuation}")
        if x == 0 and p != 0.0:
            raise ValueError(f"seller {bid.id}: losing seller must be paid 0, got {p}")
        total += x
        paid += p * x
    recomputed = instance.revenue_table[total] - paid
    if profit is None:
        profit = recomputed
    elif abs(profit - recomputed) > EPS:
        raise ValueError(f"declared profit {profit} disagrees with recomputation {recomputed}")
    return AuctionOutcome(allocation=allocation, payment_per_unit=payment_per_unit, profit=profit)


# --- instance file format ---------------------------------------------------
#
# {"bids": [{"v": <number>, "q": <int>}, ...],
#  "curve": {"kind": "linear"|"capped"|"pwl", "r": <number>, "D": <int>,
#            "points": [[q, R], ...]}}
#
# Seller ids are positions in the bids array.

def instance_to_json_dict(instance: Instance) -> dict:
    curve = instance.curve
    if curve.kind == "linear":
        cd = {"kind": "linear", "r": curve.r}
    elif curve.kind == "capped":
        cd = {"kind": "capped", "r": curve.r, "D": curve.cap}
    else:
        cd = {"kind": "pwl", "points": [[q, rev] for q, rev in curve.points]}
    return {
        "bids": [{"v": b.valuation, "q": b.capacity} for b in instance.bids],
        "curve": cd,
    }


def _finite(value, field: str):
    """Reject a NaN or infinite JSON number by field name; pass anything else through."""
    if isinstance(value, float) and not math.isfinite(value):
        raise InstanceFormatError(f"{field} must be a finite number, got {value!r}")
    return value


def instance_from_json_dict(data) -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    for key in ("bids", "curve"):
        if key not in data:
            raise InstanceFormatError(f"missing required field {key!r}")
    raw_bids = data["bids"]
    if not isinstance(raw_bids, list) or not raw_bids:
        raise InstanceFormatError("'bids' must be a non-empty array")
    bids = []
    for i, rb in enumerate(raw_bids):
        if not isinstance(rb, dict) or "v" not in rb or "q" not in rb:
            raise InstanceFormatError(f"bids[{i}] must be an object with fields 'v' and 'q'")
        v, q = rb["v"], rb["q"]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InstanceFormatError(f"bids[{i}].v must be a number, got {v!r}")
        if not isinstance(q, int) or isinstance(q, bool):
            raise InstanceFormatError(f"bids[{i}].q must be an integer, got {q!r}")
        try:
            bids.append(Bid(float(v), q, i))
        except ValueError as exc:
            raise InstanceFormatError(f"bids[{i}]: {exc}") from exc
    raw_curve = data["curve"]
    if not isinstance(raw_curve, dict) or "kind" not in raw_curve:
        raise InstanceFormatError("'curve' must be an object with a 'kind' field")
    kind = raw_curve["kind"]
    try:
        if kind == "linear":
            curve = linear_curve(float(_finite(raw_curve["r"], "curve.r")))
        elif kind == "capped":
            d = raw_curve["D"]
            if not isinstance(d, int) or isinstance(d, bool):
                raise InstanceFormatError(f"curve.D must be an integer, got {d!r}")
            curve = capped_curve(float(_finite(raw_curve["r"], "curve.r")), d)
        elif kind == "pwl":
            pts = raw_curve["points"]
            if not isinstance(pts, list):
                raise InstanceFormatError("curve.points must be an array of [q, R] pairs")
            for i, pt in enumerate(pts):
                if isinstance(pt, list):
                    for k, x in enumerate(pt):
                        _finite(x, f"curve.points[{i}][{k}]")
            curve = pwl_curve(pts)
        else:
            raise InstanceFormatError(f"curve.kind must be one of linear/capped/pwl, got {kind!r}")
    except KeyError as exc:
        raise InstanceFormatError(f"curve missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"curve: {exc}") from exc
    try:
        return Instance(bids=tuple(bids), curve=curve)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return instance_from_json_dict(data)


def load_instance(path) -> Instance:
    return loads_instance(Path(path).read_text())


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_json_dict(instance), indent=2)


def dump_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps_instance(instance) + "\n")
