"""Core domain model: bids, revenue curves, instances, and auction outcomes.

Money amounts and valuations are floats; unit counts are ints. All threshold
comparisons in this package go through :func:`leq`, which absorbs float noise
up to ``EPS`` so that exact-profit identities stay stable at boundaries.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

EPS = 1e-9


def leq(a: float, b: float) -> bool:
    """True iff a <= b up to the package-wide money tolerance."""
    return a <= b + EPS


class InstanceFormatError(ValueError):
    """Raised when an instance file violates the on-disk schema or a type invariant."""


def _money(value, field: str) -> float:
    """A money field as a float: the one check of every ask, slope and pwl
    revenue. A value that is not a finite, non-negative int or float (a
    bool is neither) raises ``ValueError`` naming ``field``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{field} must be a finite non-negative number, got {value!r}")


def require_count(value, name: str, least: int) -> None:
    """The one check of every count the package takes (a capacity, cap,
    breakpoint, unit count, run count or family size): an int, not a
    bool, of at least ``least``. Anything else raises ``ValueError``
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class RevenueCurve:
    """Resale revenue R(q) for integer unit counts, with R(0) = 0.

    Kinds:
      * ``linear``: R(q) = r * q
      * ``capped``: R(q) = r * min(q, cap); constant past the cap
      * ``pwl``: piecewise linear through (0, 0) and the given (q, R)
        breakpoints, extended past the last breakpoint at the final
        segment's slope

    The curve is held as its affine pieces (:attr:`pieces`), so a scan
    reads a few values of R per seller block instead of one per unit, and
    nothing is tabulated over the supply.

    Construction stores ``r`` and each pwl revenue as a float, requires
    pwl ``points`` to be a list or tuple of [q, R] pairs (lists or tuples
    of two items) with strictly increasing counts q, and rejects negative
    marginal revenue (revenue must be non-decreasing); an error names the
    field at fault (``r``, ``cap``, ``points[i]``, ``points[i][j]``).
    Concavity is a separate, instance-level check done by
    :func:`validate_curve` over the instance's supply, whose error names
    the unit count where marginal revenue first rises; the curve finds that
    count once (:attr:`concavity_violation`).
    """

    kind: str
    r: float = 0.0
    cap: int = 0
    points: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind in ("linear", "capped"):
            object.__setattr__(self, "r", _money(self.r, "r"))
            if self.kind == "capped":
                require_count(self.cap, "cap", 1)
        elif self.kind == "pwl":
            if not isinstance(self.points, (list, tuple)):
                raise ValueError("points must be an array of [q, R] pairs")
            for i, point in enumerate(self.points):
                if not (isinstance(point, (list, tuple)) and len(point) == 2):
                    raise ValueError(f"points[{i}] must be a [q, R] pair, got {point!r}")
            if not self.points:
                raise ValueError("points must hold at least one breakpoint")
            points, prev_q, prev_rev = [], 0, 0.0
            for i, (q, rev) in enumerate(self.points):
                require_count(q, f"points[{i}][0]", prev_q + 1)
                rev = _money(rev, f"points[{i}][1]")
                if rev < prev_rev:
                    raise ValueError(f"points[{i}][1] must be >= {prev_rev!r}, got {rev!r}")
                points.append((q, rev))
                prev_q, prev_rev = q, rev
            object.__setattr__(self, "points", tuple(points))
        else:
            raise ValueError(f"kind must be one of linear/capped/pwl, got {self.kind!r}")

    def at(self, q: int) -> float:
        """R(q) for a non-negative integer unit count: :func:`piece_revenue`
        on the piece holding q."""
        require_count(q, "unit count", 0)
        if q == 0:
            return 0.0
        pieces = self.pieces
        return piece_revenue(pieces[bisect_left(pieces, q, key=piece_end)], q)

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, int, float], ...]:
        """R's affine pieces in order, as (last count, slope, base count,
        base revenue): the curve's one representation.

        A piece covers the counts after the previous piece's last count up
        to its own; the last piece has no end (``math.inf``). On a piece, R(u)
        is :func:`piece_revenue`, the base revenue plus the slope float times
        (u - base count), so the exact value of that expression grows by the
        slope per unit. A linear curve is one piece and a capped curve two,
        with base revenue ``r * 0.0`` below the cap and, on the plateau, base
        revenue ``r * cap`` and slope ``r * 0.0`` (so R(u) keeps the sign of
        zero that ``r * u`` and ``r * min(u, cap)`` give, r = -0.0
        included). A pwl curve has one piece per breakpoint, walked from the
        implied (0, 0) origin, then the extension past the last breakpoint
        at the final segment's slope. Cached per curve object.
        """
        r = self.r
        if self.kind == "linear":
            return ((math.inf, r, 0, r * 0.0),)
        if self.kind == "capped":
            return ((self.cap, r, 0, r * 0.0), (math.inf, r * 0.0, self.cap, r * self.cap))
        pieces = []
        base, base_revenue = 0, 0.0
        for q, rev in self.points:
            pieces.append((q, (rev - base_revenue) / (q - base), base, base_revenue))
            base, base_revenue = q, rev
        pieces.append((math.inf, pieces[-1][1], base, base_revenue))
        return tuple(pieces)

    @cached_property
    def concavity_violation(self) -> tuple[int, str] | None:
        """(b, message) for the first piece end b at which marginal revenue
        rises, or None: the one search behind :func:`validate_curve`.

        R grows by a piece's slope per unit on that piece, so the marginals
        can rise only where a piece ends. A piece end b counts if the next
        piece's slope exceeds its own by more than ``EPS``, and the
        marginals R(b+1) - R(b) and R(b) - R(b-1), which the message names
        with k = b, do too. The second test keeps a slope rise within
        rounding of ``EPS`` from rejecting a curve whose every marginal is
        within ``EPS`` of the one before. Costs O(k) for k pieces, once per
        curve object, whatever the supplies it is checked over.
        """
        pieces = self.pieces
        for (b, slope, _, _), (_, next_slope, _, _) in zip(pieces, pieces[1:]):
            if next_slope > slope + EPS:
                rev = self.at(b)
                before, after = rev - self.at(b - 1), self.at(b + 1) - rev
                if after > before + EPS:
                    return b, (
                        f"revenue curve rejected: marginal revenue increases at k={b}: "
                        f"R({b + 1})-R({b})={after:.12g} > R({b})-R({b - 1})={before:.12g}"
                    )
        return None


def piece_revenue(piece, u: int) -> float:
    """R(u) on one of a curve's affine pieces (:attr:`RevenueCurve.pieces`)
    that holds the count u: base revenue + slope * (u - base count).

    The one evaluation of the revenue curve: :meth:`RevenueCurve.at`, the
    single-price kernel, extraction and the pay-as-bid scan all read R here.
    """
    _, slope, base, base_revenue = piece
    return base_revenue + slope * (u - base)


piece_end = itemgetter(0)  # a piece's last count, the key its bisections search on


def linear_curve(r: float) -> RevenueCurve:
    return RevenueCurve(kind="linear", r=r)


def capped_curve(r: float, cap: int) -> RevenueCurve:
    return RevenueCurve(kind="capped", r=r, cap=cap)


def pwl_curve(points) -> RevenueCurve:
    return RevenueCurve(kind="pwl", points=points)


def validate_curve(curve: RevenueCurve, max_q: int) -> None:
    """Certify non-increasing marginal revenue over 0..max_q (R(0) = 0 by
    construction), or raise ``ValueError``.

    The check rejects if the curve's first violation, the piece end b of
    :attr:`RevenueCurve.concavity_violation`, lies below max_q, with that
    violation's message. The curve finds b once, so a check costs O(1)
    after the first, however many supplies it is made over. The check is
    prefix-closed: acceptance over 0..max_q implies acceptance over every
    shorter range.
    """
    require_count(max_q, "max_q", 1)
    violation = curve.concavity_violation
    if violation is not None and violation[0] < max_q:
        raise ValueError(violation[1])


@dataclass(frozen=True)
class Bid:
    """One seller's offer: asking price per unit and how many units they can supply.

    The ask is stored as a float; an error names the field at fault."""

    valuation: float
    capacity: int = 1
    id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "valuation", _money(self.valuation, "valuation"))
        require_count(self.capacity, "capacity", 1)


@dataclass(frozen=True)
class Instance:
    """A complete auction input: the bid vector plus the buyer's revenue curve.

    Construction certifies the model assumptions: at least one bid, seller
    ids 0..n-1 in bid order, so that a seller's id is its position and the
    index of its coin in a draw, and a revenue curve that is concave with
    R(0) = 0 over the instance's total supply m, which
    :func:`validate_curve` checks against the violation the curve found
    once, whatever m, and whose R(m) is finite. Instances are immutable;
    ``total_supply`` (m) is counted once here, as a plain attribute outside
    the fields, so it takes no part in equality, hashing or ``repr``, and
    sorted views are derived on demand and cached. The scans and extraction
    read the curve through its affine pieces (:attr:`RevenueCurve.pieces`),
    which the curve caches.
    """

    bids: tuple[Bid, ...]
    curve: RevenueCurve

    def __post_init__(self):
        if not self.bids:
            raise ValueError("instance needs at least one bid")
        for i, b in enumerate(self.bids):
            if b.id != i:
                raise ValueError("seller ids must be 0..n-1 in bid order")
        m = sum(b.capacity for b in self.bids)
        object.__setattr__(self, "total_supply", m)
        validate_curve(self.curve, m)
        top = self.curve.at(m)
        if not math.isfinite(top):  # R is non-decreasing, so every R(u) here is finite too
            raise ValueError(f"revenue curve rejected: R({m}) = {top} at the total supply is not finite")

    @property
    def n(self) -> int:
        return len(self.bids)

    @cached_property
    def is_unit_capacity(self) -> bool:
        return all(b.capacity == 1 for b in self.bids)

    @cached_property
    def sorted_bids(self) -> tuple[Bid, ...]:
        """Bids by ascending valuation, ties by ascending id, which is the
        bid's position in :attr:`bids`."""
        return tuple(sorted(self.bids, key=lambda b: (b.valuation, b.id)))

    def with_bid(self, position: int, valuation: float, capacity: int) -> Instance:
        """This instance with the bid at ``position`` replaced by one of the
        same id asking ``valuation`` for ``capacity`` units: a unilateral
        deviation, built and validated as a new instance."""
        bids = list(self.bids)
        bids[position] = Bid(valuation, capacity, bids[position].id)
        return Instance(bids=tuple(bids), curve=self.curve)


def make_instance(valuations, capacities=None, *, curve: RevenueCurve) -> Instance:
    """Convenience builder: ids are assigned 0..n-1 in list order, and
    capacities default to 1 each."""
    if capacities is None:
        capacities = [1] * len(valuations)
    elif len(capacities) != len(valuations):
        raise ValueError(f"{len(valuations)} valuations but {len(capacities)} capacities")
    bids = tuple(Bid(v, q, i) for i, (v, q) in enumerate(zip(valuations, capacities)))
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


def make_outcome(instance: Instance, allocation, payment_per_unit, profit: float | None = None) -> AuctionOutcome:
    """Build an outcome, checking feasibility, IR, and the profit identity.

    Each allocation entry must be an int and each payment a finite int or
    float, of exactly those types (a bool is neither); an error names the
    seller, and an int past the largest float is not finite. Payments whose
    total overflows are rejected too. Payments are stored as floats.

    A mechanism that knows its exact profit (e.g. a target it extracted) may
    declare it; the declared value must agree with the recomputation
    R(sum x) - sum p_i * x_i to within

        EPS + (n + 4) 2^-52 (R(sum x) + V),

    n the number of bids and V the sum of |fl(p_i * x_i)|. The second term
    exceeds EPS only once R(sum x) + V exceeds 4.5e6 / (n + 4). It bounds
    the rounding of the recomputation and of a price of the form
    fl(fl(R(u) - P) / u), the one extraction pays for a declared target P.
    With e = 2^-53 the rounding unit and R = R(sum x) >= 0:

    - A product fl(p_i x_i) is exact or within e |p_i x_i| of p_i x_i (an
      integer x_i >= 0 cannot take it below the subnormal grid), and the
      n terms are summed with n - 1 roundings, so ``paid`` lies within
      1.01 n e V of sum p_i x_i, and |paid| <= 1.01 V.
    - The final difference adds at most e |R - paid|, so the recomputation
      lies within 1.01 (n + 1) e (R + V) of the exact R - sum p_i x_i.
    - A price p = fl(fl(R - P) / u) paid on all u units makes u p lie
      within 2.01 e |R - P| of R - P, and |R - P| <= 1.01 u |p| <= 1.02 V,
      so the exact profit R - u p of such an outcome lies within 2.06 e V
      of P.

    Together that is at most 1.01 (n + 4) e (R + V), half the second term;
    the other half covers the rounding of the check itself.
    """
    allocation = tuple(allocation)
    payment_per_unit = tuple(payment_per_unit)
    if len(allocation) != instance.n or len(payment_per_unit) != instance.n:
        raise ValueError("allocation/payment length must match the number of bids")
    total = 0
    paid = 0.0
    for bid, x, p in zip(instance.bids, allocation, payment_per_unit):
        # exact types, which rule bools out at a third of isinstance's cost on this hot path
        if type(x) is not int:
            raise ValueError(f"seller {bid.id}: allocation must be an integer, got {x!r}")
        if type(p) is not float:
            if type(p) is not int:
                raise ValueError(f"seller {bid.id}: payment must be a number, got {p!r}")
            if not abs(p) <= sys.float_info.max:  # an int too large to convert
                raise ValueError(f"seller {bid.id}: payment must be a finite number, got {p!r}")
            p = float(p)
        if x < 0 or x > bid.capacity:
            raise ValueError(f"seller {bid.id}: allocation {x} outside [0, {bid.capacity}]")
        if x > 0 and not leq(bid.valuation, p):
            if not math.isfinite(p):  # NaN and -inf fail the check too: name them for what they are
                raise ValueError(f"seller {bid.id}: payment must be a finite number, got {p!r}")
            raise ValueError(f"seller {bid.id}: payment {p} below reported valuation {bid.valuation}")
        if x == 0 and p != 0.0:
            raise ValueError(f"seller {bid.id}: losing seller must be paid 0, got {p}")
        total += x
        paid += p * x
    if not math.isfinite(paid):  # checked once, off the per-seller path: name an infinite payment if there is one
        for bid, p in zip(instance.bids, payment_per_unit):
            if not math.isfinite(p):
                raise ValueError(f"seller {bid.id}: payment must be a finite number, got {p!r}")
        raise ValueError(f"total payment {paid} is not finite")
    revenue = instance.curve.at(total)
    recomputed = revenue - paid
    if profit is None:
        profit = recomputed
    elif abs(profit - recomputed) > EPS:  # the rounding bound is needed only past EPS
        volume = sum(abs(p * x) for x, p in zip(allocation, payment_per_unit))
        if abs(profit - recomputed) > EPS + (instance.n + 4) * 2.0**-52 * (revenue + volume):
            raise ValueError(f"declared profit {profit} disagrees with recomputation {recomputed}")
    return AuctionOutcome(allocation=allocation, payment_per_unit=tuple(map(float, payment_per_unit)), profit=profit)


# --- instance file format ---------------------------------------------------
#
# {"bids": [{"v": <number>, "q": <int>}, ...],
#  "curve": {"kind": "linear"|"capped"|"pwl", "r": <number>, "D": <int>,
#            "points": [[q, R], ...]}}
#
# Seller ids are positions in the bids array. A bid's v and q are its
# valuation and capacity, and a capped curve's D is its cap: the names the
# loader's errors give them.

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


def instance_from_json_dict(data) -> Instance:
    """The instance a parsed file describes. This checks the file's
    structure; each value is checked by the constructor it is passed to,
    and a ``ValueError`` it raises comes back as an
    :class:`InstanceFormatError` naming the value's bid or curve and its
    field, as in ``bids[1].valuation`` or ``curve.points[0][1]``."""
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
        try:
            bids.append(Bid(rb["v"], rb["q"], i))
        except ValueError as exc:
            raise InstanceFormatError(f"bids[{i}].{exc}") from exc
    raw_curve = data["curve"]
    if not isinstance(raw_curve, dict) or "kind" not in raw_curve:
        raise InstanceFormatError("'curve' must be an object with a 'kind' field")
    kind = raw_curve["kind"]
    try:
        if kind == "linear":
            curve = linear_curve(raw_curve["r"])
        elif kind == "capped":
            curve = capped_curve(raw_curve["r"], raw_curve["D"])
        elif kind == "pwl":
            curve = pwl_curve(raw_curve["points"])
        else:
            curve = RevenueCurve(kind)
    except KeyError as exc:
        raise InstanceFormatError(f"curve missing required field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise InstanceFormatError(f"curve.{exc}") from exc
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

