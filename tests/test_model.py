import json

import pytest
from hypothesis import given, strategies as st

from procure.model import (
    Bid,
    Instance,
    InstanceFormatError,
    capped_curve,
    dumps_instance,
    linear_curve,
    loads_instance,
    make_instance,
    make_outcome,
    pwl_curve,
    validate_curve,
)


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
    assert validate_curve(linear_curve(10.0), 100).ok
    assert validate_curve(capped_curve(15.0, 200), 300).ok


def test_validate_rejects_increasing_marginals():
    c = pwl_curve([(1, 5.0), (2, 12.0)])  # marginals 5 then 7
    res = validate_curve(c, 2)
    assert not res.ok
    assert res.violation_at == 1


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


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(bids=(), curve=linear_curve(1.0))
    with pytest.raises(ValueError):
        Instance(bids=(Bid(1.0, 1, 0), Bid(2.0, 1, 0)), curve=linear_curve(1.0))  # dup ids
    # non-concave curve rejected at instance level
    with pytest.raises(ValueError):
        make_instance([1.0, 2.0], curve=pwl_curve([(1, 5.0), (2, 12.0)]))


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
    res = validate_curve(curve, max_q)
    assert res.ok
    table = curve.table(max_q)
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
    curve = make_curve()
    for m in supplies:
        inst = _supply_instance(curve, m)
        assert _bits(inst.revenue_table) == _bits(curve.table(m))
    assert len(curve._certified[0]) == max(supplies) + 1


@given(concave_marginal_curves(), st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
def test_certified_tables_match_fresh_tables_for_any_supply_sequence(curve, supplies):
    for m in supplies:
        assert _bits(_supply_instance(curve, m).revenue_table) == _bits(curve.table(m))


def test_certified_curve_still_rejects_past_a_violation():
    points = [(5, 50.0), (10, 75.0), (12, 100.0)]  # marginals 10, 5, then 12.5 from k=10
    curve = pwl_curve(points)
    _supply_instance(curve, 10)
    assert len(curve._certified[0]) == 11
    expected = validate_curve(pwl_curve(points), 12)
    assert not expected.ok and expected.violation_at == 10
    again = validate_curve(curve, 12)
    assert (again.violation_at, again.message) == (expected.violation_at, expected.message)
    with pytest.raises(ValueError) as err:
        _supply_instance(curve, 12)
    assert str(err.value) == f"revenue curve rejected: {expected.message}"
    # the rejection leaves the certified prefix as it was
    assert _bits(_supply_instance(curve, 7).revenue_table) == _bits(curve.table(7))
    assert len(curve._certified[0]) == 11


def test_equal_curves_keep_their_own_tables():
    neg, pos = linear_curve(-0.0), linear_curve(0.0)
    assert neg == pos
    neg_table = _supply_instance(neg, 4).revenue_table
    pos_table = _supply_instance(pos, 4).revenue_table
    assert _bits(neg_table) == _bits(neg.table(4)) == ["0x0.0p+0"] + ["-0x0.0p+0"] * 4
    assert _bits(pos_table) == _bits(pos.table(4)) == ["0x0.0p+0"] * 5


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


def test_json_round_trip_is_bit_identical():
    inst = make_instance([1.5, 9.0, 10.0], capacities=[2, 1, 3], curve=capped_curve(15.0, 4))
    text = dumps_instance(inst)
    again = dumps_instance(loads_instance(text))
    assert text == again


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
