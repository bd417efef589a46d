import dataclasses
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from procure.benchmarks import block_parts
from procure.model import (
    EPS,
    Bid,
    Instance,
    InstanceFormatError,
    capped_curve,
    dumps_instance,
    linear_curve,
    loads_instance,
    make_instance,
    make_outcome,
    piece_revenue,
    pwl_curve,
    validate_curve,
)

from oracles import per_unit_validate_curve, revenue_table


def test_linear_curve_values():
    c = linear_curve(10.0)
    assert c.at(3) == 30.0
    assert c.at(0) == 0.0


def test_capped_curve_saturates():
    c = capped_curve(15.0, 200)
    assert c.at(250) == 3000.0
    assert c.at(200) == 3000.0
    assert c.at(1) == 15.0
    assert c.at(0) == 0.0


def test_pwl_curve_interpolates_and_extends():
    c = pwl_curve([(2, 10.0), (4, 14.0)])
    assert c.at(1) == 5.0
    assert c.at(2) == 10.0
    assert c.at(3) == 12.0
    assert c.at(4) == 14.0
    # beyond the last breakpoint: final slope (2 per unit)
    assert c.at(6) == 18.0


def test_validate_accepts_linear_and_capped():
    assert validate_curve(linear_curve(10.0), 100) is None
    assert validate_curve(capped_curve(15.0, 200), 300) is None


def test_validate_rejects_increasing_marginals():
    c = pwl_curve([(1, 5.0), (2, 12.0)])  # marginals 5 then 7
    with pytest.raises(ValueError) as err:
        validate_curve(c, 2)
    assert str(err.value) == per_unit_validate_curve(c, 2) == (
        "revenue curve rejected: marginal revenue increases at k=1: R(2)-R(1)=7 > R(1)-R(0)=5"
    )


def test_negative_marginals_rejected_at_construction():
    with pytest.raises(ValueError):
        linear_curve(-1.0)
    with pytest.raises(ValueError):
        pwl_curve([(1, 5.0), (2, 4.0)])  # revenue drops


def test_bid_validation():
    with pytest.raises(ValueError):
        Bid(-1.0, 1, 0)
    with pytest.raises(ValueError):
        Bid(1.0, 0, 0)
    with pytest.raises(ValueError):
        Bid(float("nan"), 1, 0)
    # a bool is no ask or capacity: the instance file could not be read back
    with pytest.raises(ValueError, match="^valuation must be"):
        Bid(True, 1, 0)
    with pytest.raises(ValueError, match="^capacity must be"):
        Bid(2.0, True, 0)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(bids=(), curve=linear_curve(1.0))
    with pytest.raises(ValueError):
        Instance(bids=(Bid(1.0, 1, 0), Bid(2.0, 1, 0)), curve=linear_curve(1.0))  # dup ids
    # unique ids that are not the bids' positions
    for bids in ((Bid(1.0, 1, 1), Bid(2.0, 1, 0)), (Bid(1.0, 1, 0), Bid(2.0, 1, 2))):
        with pytest.raises(ValueError, match=r"seller ids must be 0\.\.n-1 in bid order"):
            Instance(bids=bids, curve=linear_curve(1.0))
    # non-concave curve rejected at instance level
    with pytest.raises(ValueError):
        make_instance([1.0, 2.0], curve=pwl_curve([(1, 5.0), (2, 12.0)]))
    # bools where the file format needs numbers, rejected by name
    with pytest.raises(ValueError, match="^valuation must be"):
        Instance(bids=(Bid(True, True, 0), Bid(2.0, 3, 1)), curve=linear_curve(5.0))
    with pytest.raises(ValueError, match="^r must be a finite non-negative number, got True$"):
        linear_curve(True)
    with pytest.raises(ValueError, match="^cap must be an integer, got True$"):
        capped_curve(5.0, True)
    with pytest.raises(ValueError, match="^r must be a finite non-negative number, got True$"):
        capped_curve(True, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: make_instance([1.0, 2.0], capacities=[2.7, 3], curve=linear_curve(5.0)), "capacity must be an integer, got 2.7"),
    (lambda: pwl_curve([(2.5, 1.0), (4, 1.5)]), "points[0][0] must be an integer, got 2.5"),
    (lambda: Bid("0.5", 1, 0), "valuation must be a finite non-negative number, got '0.5'"),
    (lambda: linear_curve("5"), "r must be a finite non-negative number, got '5'"),
    (lambda: make_instance([1.0, 2.0], capacities=[1], curve=linear_curve(5.0)), "2 valuations but 1 capacities"),
    (lambda: make_instance([1.0, 2.0], capacities=[1, 2, 3], curve=linear_curve(5.0)), "2 valuations but 3 capacities"),
], ids=["fractional-capacity", "fractional-breakpoint", "string-ask", "string-r", "capacity-missing", "capacity-extra"])
def test_the_library_builders_do_not_coerce(build, message):
    """The builders pass values to the constructors as given: a value the
    instance file could not hold is rejected by name, not truncated or
    parsed."""
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_make_instance_requires_a_curve():
    with pytest.raises(TypeError, match="curve"):
        make_instance([1.0, 2.0])


def test_sorted_view_breaks_ties_by_id():
    inst = make_instance([5.0, 5.0, 1.0], curve=linear_curve(10.0))
    assert [b.id for b in inst.sorted_bids] == [2, 0, 1]
    # derived, not mutated
    assert [b.id for b in inst.bids] == [0, 1, 2]


@st.composite
def concave_marginal_curves(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    margs = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=k, max_size=k)),
        reverse=True,
    )
    points = []
    q, rev = 0, 0.0
    for m in margs:
        q += draw(st.integers(min_value=1, max_value=4))
        rev += m * (q - (points[-1][0] if points else 0))
        points.append((q, rev))
    return pwl_curve(points)


@given(concave_marginal_curves(), st.integers(min_value=1, max_value=20))
def test_average_revenue_monotone_for_accepted_curves(curve, max_q):
    assert validate_curve(curve, max_q) is None
    table = revenue_table(curve, max_q)
    for i in range(1, max_q + 1):
        for j in range(i, max_q + 1):
            assert table[i] * j >= table[j] * i - 1e-9


@given(concave_marginal_curves(), st.integers(min_value=1, max_value=30))
def test_revenue_non_decreasing(curve, q):
    assert curve.at(q) >= curve.at(q - 1) - 1e-12


def _bits(table):
    return [x.hex() for x in table]


def _supply_instance(curve, m):
    return Instance(bids=(Bid(1.0, m, 0),), curve=curve)


@pytest.mark.parametrize("make_curve", [
    lambda: linear_curve(10.1),
    lambda: capped_curve(15.3, 700),
    lambda: pwl_curve([(110, 59.03480089922949), (453, 119.71498804229617), (587, 133.9435492281212)]),
])
@pytest.mark.parametrize("supplies", [(1000, 587, 3, 1), (1, 3, 587, 1000)])
def test_certified_tables_are_fresh_tables_in_either_build_order(make_curve, supplies):
    """Instances sharing one curve object certify it over their own
    supplies in either order, and read R(0..m) as a fresh table holds it."""
    curve = make_curve()
    for m in supplies:
        inst = _supply_instance(curve, m)
        assert _bits(inst.curve.at(u) for u in range(m + 1)) == _bits(revenue_table(curve, m))


@given(concave_marginal_curves(), st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
def test_certified_tables_match_fresh_tables_for_any_supply_sequence(curve, supplies):
    for m in supplies:
        inst = _supply_instance(curve, m)
        assert _bits(inst.curve.at(u) for u in range(m + 1)) == _bits(revenue_table(curve, m))


def test_certified_curve_still_rejects_past_a_violation():
    points = [(5, 50.0), (10, 75.0), (12, 100.0)]  # marginals 10, 5, then 12.5 from k=10
    curve = pwl_curve(points)
    accepted = _supply_instance(curve, 10)
    expected = per_unit_validate_curve(pwl_curve(points), 12)
    assert "marginal revenue increases at k=10:" in expected
    with pytest.raises(ValueError) as again:
        validate_curve(curve, 12)
    assert str(again.value) == expected
    with pytest.raises(ValueError) as err:
        _supply_instance(curve, 12)
    assert str(err.value) == expected
    with pytest.raises(ValueError) as deviated:  # an audit's deviation, one unit past the violation
        accepted.with_bid(0, 1.0, 11)
    assert str(deviated.value) == expected
    # a supply short of the violation still certifies
    assert validate_curve(curve, 10) is None and _supply_instance(curve, 7).total_supply == 7


@pytest.mark.parametrize("points", [
    [(1, 5.0), (2, 12.0)],
    [(5, 50.0), (10, 75.0), (12, 100.0)],  # marginals 10, 5, then 12.5 from k=10
    [(3, 9.0), (6, 15.0), (8, 23.0), (9, 24.0)],  # a rise at k=6, none before it
    [(2, 2.0), (4, 4.0 + 2.2e-9)],  # the slopes rise by 1.1e-9, past EPS
    [(5, 33.591061028100306), (7, 47.02748544134043)],  # slopes rise past EPS, marginals do not
    [(4, 20.0), (8, 30.0)],  # concave
])
def test_one_curve_object_checks_every_supply_in_either_order(points):
    """The curve finds its violation once, and each check compares the
    supply with it: on one curve object, every max_q in 1..k+2 (k the last
    breakpoint) gets the per-unit oracle's message or none, checked in
    ascending order and again in descending order, and on a second object
    the other way round."""
    top = points[-1][0] + 2
    expected = {max_q: per_unit_validate_curve(pwl_curve(points), max_q) for max_q in range(1, top + 1)}
    for order in (range(1, top + 1), range(top, 0, -1)):
        curve = pwl_curve(points)
        for max_q in (*order, *reversed(order)):
            try:
                got = validate_curve(curve, max_q)
            except ValueError as exc:
                got = str(exc)
            assert got == expected[max_q], (order, max_q)


def test_the_violation_search_runs_once_per_curve(monkeypatch):
    """After a curve's first check, an instance on it evaluates R only at
    its total supply, whatever that supply: the search is not redone."""
    curve = pwl_curve([(5, 33.591061028100306), (7, 47.02748544134043)])  # a slope rise to test at k=5
    calls = []
    at = type(curve).at
    monkeypatch.setattr(type(curve), "at", lambda self, q: calls.append(q) or at(self, q))
    supplies = [6, 7, 30, 8, 6, 1, 100]
    for m in supplies:
        make_instance([1.0], capacities=[m], curve=curve)
    assert calls == [5, 4, 6] + supplies  # R(5), R(4) and R(6) for the search, once


def test_equal_instances_compare_hash_and_print_as_before():
    """The total supply is counted at construction but is no field: equal
    instances, however built, are equal, hash alike, and print their bids
    and curve only."""
    curve = capped_curve(15.0, 4)
    built = make_instance([1.5, 9.0], capacities=[2, 3], curve=curve)
    deviated = make_instance([1.5, 7.0], capacities=[2, 1], curve=capped_curve(15.0, 4)).with_bid(1, 9.0, 3)
    assert built == deviated and hash(built) == hash(deviated)
    assert built.total_supply == deviated.total_supply == 5
    assert built != built.with_bid(1, 9.0, 2)
    assert repr(built) == (
        "Instance(bids=(Bid(valuation=1.5, capacity=2, id=0), Bid(valuation=9.0, capacity=3, id=1)), "
        "curve=RevenueCurve(kind='capped', r=15.0, cap=4, points=()))"
    )
    assert [f.name for f in dataclasses.fields(Instance)] == ["bids", "curve"]


def test_equal_curves_keep_their_own_tables():
    """Equal curves (-0.0 == 0.0) keep their own sign of zero in R, on
    the oracle's table and through ``at``, capped plateaus included."""
    for neg, pos in ((linear_curve(-0.0), linear_curve(0.0)), (capped_curve(-0.0, 2), capped_curve(0.0, 2))):
        assert neg == pos
        neg_curve, pos_curve = _supply_instance(neg, 4).curve, _supply_instance(pos, 4).curve
        neg_bits = _bits(neg_curve.at(u) for u in range(5))
        assert neg_bits == _bits(revenue_table(neg, 4)) == ["0x0.0p+0"] + ["-0x0.0p+0"] * 4
        assert _bits(pos_curve.at(u) for u in range(5)) == _bits(revenue_table(pos, 4)) == ["0x0.0p+0"] * 5


@st.composite
def _scaled_curves(draw):
    """(curve, m): a curve of any kind with money scaled by 1e-6..1e9 or a
    slope of +-0.0, and a supply m past some or all of its breakpoints."""
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=9))
    slope = st.one_of(st.floats(min_value=0.0, max_value=3.0).map(lambda x: scale * x), st.sampled_from((0.0, -0.0)))
    kind = draw(st.sampled_from(("linear", "capped", "pwl")))
    if kind == "linear":
        curve = linear_curve(draw(slope))
    elif kind == "capped":
        curve = capped_curve(draw(slope), draw(st.integers(min_value=1, max_value=200)))
    else:
        points, q_acc, rev = [], 0, 0.0
        for marginal in sorted(draw(st.lists(slope, min_size=1, max_size=4)), reverse=True):
            length = draw(st.integers(min_value=1, max_value=60))
            q_acc, rev = q_acc + length, rev + marginal * length
            points.append((q_acc, rev))
        curve = pwl_curve(points)
    return curve, draw(st.integers(min_value=1, max_value=300))


@settings(max_examples=300, deadline=None)
@given(_scaled_curves())
@example((linear_curve(-0.0), 3))
@example((capped_curve(-0.0, 2), 5))
@example((capped_curve(1e-6 / 3, 7), 9))
@example((pwl_curve([(3, 1e9 / 3), (8, 2e9 / 3)]), 12))
def test_curve_values_match_the_oracle_table(case):
    """``at`` and ``piece_revenue`` on each part of 1..m give the oracle
    table's floats, sign of zero included."""
    curve, m = case
    table = _bits(revenue_table(curve, m))
    assert _bits(curve.at(u) for u in range(m + 1)) == table
    on_parts = [piece_revenue(piece, u) for lo, hi, piece in block_parts(curve.pieces, 1, m) for u in range(lo, hi + 1)]
    assert _bits([0.0] + on_parts) == table


_BUMPS = (0.0, 0.5 * EPS, 0.9 * EPS, 1.1 * EPS, 2 * EPS, 1e-6, 0.25, 3.0)


@st.composite
def _bumped_curves(draw):
    """A pwl curve with marginals <= 50 and pieces of 1..12 units, whose
    slopes fall, except that some pieces are steeper than the previous one
    by a bump around EPS or well past it."""
    marginals = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=49.0), min_size=1, max_size=6)), reverse=True)
    for i in range(1, len(marginals)):
        if draw(st.booleans()):
            marginals[i] = marginals[i - 1] + draw(st.sampled_from(_BUMPS))
    points, q_acc, rev = [], 0, 0.0
    for marginal in marginals:
        length = draw(st.integers(min_value=1, max_value=12))
        q_acc, rev = q_acc + length, rev + marginal * length
        points.append((q_acc, rev))
    return pwl_curve(points)


@settings(max_examples=400, deadline=None)
@given(_bumped_curves(), st.integers(min_value=1, max_value=60))
@example(pwl_curve([(1, 5.0), (2, 12.0)]), 2)
@example(pwl_curve([(5, 50.0), (10, 75.0), (12, 100.0)]), 12)
@example(pwl_curve([(2, 2.0), (4, 4.0 + 2.2e-9)]), 4)
@example(pwl_curve([(5, 33.591061028100306), (7, 47.02748544134043)]), 7)  # slopes rise past EPS, marginals do not
def test_slope_check_agrees_with_the_per_unit_oracle(curve, max_q):
    try:
        got = validate_curve(curve, max_q)
    except ValueError as exc:
        got = str(exc)
    assert got == per_unit_validate_curve(curve, max_q)


@pytest.mark.parametrize("curve", [
    pwl_curve([(10, 1e10 / 3), (25, 1e10 / 3 + 15e9 / 7)]),  # slopes 1e9 / 3, then 1e9 / 7
    pwl_curve([(3, 54.15862109754108), (15, 270.7931054997054)]),  # slopes rise by EPS, to within rounding
])
def test_slope_check_accepts_curves_the_per_unit_check_rejects_on_rounding(curve):
    """The intended changes of verdict. At large money the float marginals
    of a concave curve jitter by more than EPS, and where slopes rise by
    EPS to within rounding, the marginals' rounding can take them past it;
    the per-unit check rejected both. The slopes do not rise by more than
    EPS."""
    assert per_unit_validate_curve(curve, 40) is not None
    assert validate_curve(curve, 40) is None


def test_outcome_profit_identity():
    inst = make_instance([1.0, 9.0], curve=linear_curve(10.0))
    out = make_outcome(inst, [1, 1], [9.0, 9.0])
    assert abs(out.profit - (20.0 - 18.0)) <= 1e-9


def test_outcome_rejects_ir_violation():
    inst = make_instance([5.0, 9.0], curve=linear_curve(10.0))
    with pytest.raises(ValueError):
        make_outcome(inst, [1, 0], [4.0, 0.0])  # paid below ask
    with pytest.raises(ValueError):
        make_outcome(inst, [0, 0], [1.0, 0.0])  # loser paid
    with pytest.raises(ValueError):
        make_outcome(inst, [2, 0], [5.0, 0.0])  # over capacity


@pytest.mark.parametrize("allocation, payments, message", [
    ([2.5, 0], [5.0, 0.0], "seller 0: allocation must be an integer, got 2.5"),
    ([True, 0], [5.0, 0.0], "seller 0: allocation must be an integer, got True"),
    ([1, 0], ["6.0", 0.0], "seller 0: payment must be a number, got '6.0'"),
    ([1, 0], [6.0, False], "seller 1: payment must be a number, got False"),
    ([1, 0], [float("inf"), 0.0], "seller 0: payment must be a finite number, got inf"),
    ([1, 0], [float("nan"), 0.0], "seller 0: payment must be a finite number, got nan"),
    ([1, 0], [-float("inf"), 0.0], "seller 0: payment must be a finite number, got -inf"),
    ([1, 1], [1.7e308, 1.7e308], "total payment inf is not finite"),
    ([1, 0], [10**400, 0], f"seller 0: payment must be a finite number, got {10**400!r}"),
], ids=["fractional-allocation", "bool-allocation", "string-payment", "bool-payment", "infinite-payment",
        "nan-payment", "negative-infinite-payment", "payments-overflow", "int-payment-past-the-largest-float"])
def test_outcome_rejects_what_it_would_have_to_coerce(allocation, payments, message):
    inst = make_instance([5.0, 9.0], curve=linear_curve(10.0))
    with pytest.raises(ValueError) as err:
        make_outcome(inst, allocation, payments)
    assert str(err.value) == message


def test_outcome_rejects_an_int_payment_whose_product_overflows():
    """An int payment inside the float range, paid on two units, makes a
    total past it: rejected as a non-finite total, not an OverflowError."""
    inst = make_instance([5.0, 9.0], capacities=[2, 1], curve=linear_curve(10.0))
    with pytest.raises(ValueError, match="^total payment inf is not finite$"):
        make_outcome(inst, [2, 0], [10**308, 0])


def test_outcome_stores_an_int_payment_as_a_float():
    inst = make_instance([5.0, 9.0], curve=linear_curve(10.0))
    out = make_outcome(inst, (1, 0), (6, 0))
    assert out == make_outcome(inst, [1, 0], [6.0, 0.0])
    assert [type(p) for p in out.payment_per_unit] == [float, float]


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_outcome_rejects_a_declared_profit_off_by_more_than_the_rounding_bound(scale):
    inst = make_instance([1.0 * scale, 9.0 * scale], curve=linear_curve(10.0 * scale))
    pays = [9.0 * scale] * 2
    profit = make_outcome(inst, [1, 1], pays).profit
    bound = EPS + (inst.n + 4) * 2.0**-52 * (20.0 * scale + 18.0 * scale)
    assert make_outcome(inst, [1, 1], pays, profit=profit + bound / 2).profit == profit + bound / 2
    for off in (2 * bound, -2 * bound):
        with pytest.raises(ValueError, match="disagrees with recomputation"):
            make_outcome(inst, [1, 1], pays, profit=profit + off)


def test_json_round_trip_is_bit_identical():
    inst = make_instance([1.5, 9.0, 10.0], capacities=[2, 1, 3], curve=capped_curve(15.0, 4))
    text = dumps_instance(inst)
    again = dumps_instance(loads_instance(text))
    assert text == again
    # an instance built with ints where floats are usual loads back equal
    for inst in (
        Instance(bids=(Bid(1, 2, 0), Bid(2.0, 3, 1)), curve=linear_curve(5)),
        Instance(bids=(Bid(0, 1, 0),), curve=capped_curve(3, 2)),
    ):
        assert loads_instance(dumps_instance(inst)) == inst


_MONEY = st.one_of(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.0, max_value=1e6))


@st.composite
def _instances_with_int_or_float_money(draw):
    """An instance the constructors accept, built with each ask, slope and
    pwl revenue drawn as an int or a float."""
    n = draw(st.integers(min_value=1, max_value=4))
    bids = tuple(Bid(draw(_MONEY), draw(st.integers(min_value=1, max_value=5)), i) for i in range(n))
    kind = draw(st.sampled_from(("linear", "capped", "pwl")))
    if kind == "linear":
        curve = linear_curve(draw(_MONEY))
    elif kind == "capped":
        curve = capped_curve(draw(_MONEY), draw(st.integers(min_value=1, max_value=20)))
    else:
        points, q, rev = [], 0, 0
        for marginal in sorted(draw(st.lists(_MONEY, min_size=1, max_size=4)), reverse=True):
            length = draw(st.integers(min_value=1, max_value=6))
            q, rev = q + length, rev + marginal * length
            points.append((q, rev))
        curve = pwl_curve(points)
    try:
        return Instance(bids=bids, curve=curve)
    except ValueError:  # float marginals that are not concave to within EPS
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_instances_with_int_or_float_money())
def test_any_accepted_instance_survives_a_round_trip(inst):
    """Money given as an int is stored as a float, so an instance loads
    back equal and dumps the text it was read from."""
    text = dumps_instance(inst)
    again = loads_instance(text)
    assert again == inst
    assert dumps_instance(again) == text


def test_json_round_trip_pwl():
    inst = make_instance([0.25, 0.5], curve=pwl_curve([(1, 1.0), (3, 2.0)]))
    text = dumps_instance(inst)
    assert dumps_instance(loads_instance(text)) == text


def test_loader_names_offending_field():
    bad = json.dumps({"bids": [{"v": 1.0, "q": 1}, {"v": "x", "q": 1}], "curve": {"kind": "linear", "r": 1.0}})
    with pytest.raises(InstanceFormatError, match=r"bids\[1\]\.v"):
        loads_instance(bad)
    bad_q = json.dumps({"bids": [{"v": 1.0, "q": 0}], "curve": {"kind": "linear", "r": 1.0}})
    with pytest.raises(InstanceFormatError, match=r"bids\[0\]"):
        loads_instance(bad_q)
    with pytest.raises(InstanceFormatError, match="curve"):
        loads_instance(json.dumps({"bids": [{"v": 1.0, "q": 1}], "curve": {"kind": "bogus"}}))


def test_loader_reports_syntax_error_line():
    with pytest.raises(InstanceFormatError, match="line 2"):
        loads_instance('{"bids":\n !}')


def test_loader_requires_explicit_capacity():
    with pytest.raises(InstanceFormatError, match=r"bids\[0\]"):
        loads_instance(json.dumps({"bids": [{"v": 1.0}], "curve": {"kind": "linear", "r": 1.0}}))
