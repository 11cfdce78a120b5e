"""Weblang value semantics: PhpArray, truthiness, coercions, operators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WeblangError
from repro.lang.values import (
    BINOPS,
    PhpArray,
    arith,
    compare,
    loose_eq,
    strict_eq,
    to_float,
    to_int,
    to_str,
    truthy,
)
from repro.multivalue.multivalue import MultiValue, Partition


# -- PhpArray ----------------------------------------------------------------


def test_append_uses_next_integer_index():
    array = PhpArray()
    array.append("a")
    array.set(5, "b")
    array.append("c")
    assert array.keys() == [0, 5, 6]


def test_numeric_string_keys_normalize():
    array = PhpArray()
    array.set("3", "x")
    assert array.has(3)
    assert array.keys() == [3]
    array.set("03", "y")  # not canonical: stays a string key
    assert array.keys() == [3, "03"]


def test_bool_and_float_keys_normalize():
    array = PhpArray()
    array.set(True, "t")
    array.set(2.9, "f")
    assert array.keys() == [1, 2]


def test_null_key_is_empty_string():
    array = PhpArray()
    array.set(None, "v")
    assert array.get("") == "v"


def test_insertion_order_preserved():
    array = PhpArray()
    array.set("z", 1)
    array.set("a", 2)
    array.set("z", 3)  # overwrite keeps position
    assert array.keys() == ["z", "a"]
    assert array.values() == [3, 2]


def test_deep_copy_isolates_nested():
    inner = PhpArray.from_list([1, 2])
    outer = PhpArray.from_dict({"in": inner})
    twin = outer.deep_copy()
    twin.get("in").append(3)
    assert len(inner) == 2


def test_from_records_is_from_dict_per_record():
    """Column names become keys as ``set`` makes them — ``"12"`` an int
    key that moves the next index — once per shape of record."""
    records = [{"12": "a", "-3": "b", "x": 1, "03": 2},
               {"12": "c", "-3": "d", "x": 3, "03": 4},
               {"x": 5, "12": 6}, {}]
    built = PhpArray.from_records(records)
    assert built.get(0).keys() == [12, -3, "x", "03"]
    for index, record in enumerate(records):
        row, twin = built.get(index), PhpArray.from_dict(record)
        assert row.items() == twin.items()
        row.append("next")  # and the next index agrees
        twin.append("next")
        assert row.keys() == twin.keys()
    built.append("after")
    assert built.keys() == [0, 1, 2, 3, 4]


def test_copy_is_a_handle_until_a_write():
    inner = PhpArray.from_list([1, 2])
    outer = PhpArray.from_dict({"in": inner, "n": 1})
    twin = outer.copy()
    assert twin.data is outer.data  # O(1): nothing is copied yet
    twin.descend("in").append(3)
    twin.release()
    assert twin.data is not outer.data
    assert outer.get("in").values() == [1, 2]
    assert twin.get("in").values() == [1, 2, 3]


# -- copy-on-write against eager copies ------------------------------------------
#
# Two worlds run the same operations: in one, copies are copy-on-write
# handles and writes at depth go down through ``descend``; in the
# other, every copy is a ``deep_copy`` (what both engines did before).
# Each handle must read the same in both, after every operation: a
# write through one handle never shows through another, the source of
# a copy included.

_KEYS = st.sampled_from([0, 1, "a"])
_SCALARS = st.one_of(st.integers(-3, 3), st.sampled_from(["x", ""]))
_SPECS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.tuples(st.just("array"), st.lists(st.tuples(_KEYS, inner),
                                             max_size=3)),
        # A multivalue cell: per-class values, arrays among them.
        st.tuples(st.just("multi"), st.lists(inner, min_size=2,
                                             max_size=2)),
    ),
    max_leaves=6,
)
_PARTITION = Partition.identity(2)


def _build(spec):
    """A fresh value from ``spec``: each world gets its own objects."""
    if not isinstance(spec, tuple):
        return spec
    kind, items = spec
    if kind == "multi":
        return MultiValue(_PARTITION, [_build(item) for item in items])
    array = PhpArray()
    for key, item in items:
        array.set(key, _build(item))
    return array


def _snap(value):
    if isinstance(value, PhpArray):
        return tuple((key, _snap(cell)) for key, cell in value.items())
    if isinstance(value, MultiValue):
        return ("multi", tuple(_snap(held) for held in value.values))
    return value


_OPS = st.one_of(
    st.tuples(st.just("copy"), st.integers(0, 99)),
    # Store a copy of one handle into a cell of another: nested sharing.
    st.tuples(st.just("store"), st.integers(0, 99), st.lists(_KEYS, max_size=2),
              _KEYS, st.integers(0, 99)),
    st.tuples(st.just("set"), st.integers(0, 99), st.lists(_KEYS, max_size=2),
              _KEYS, _SPECS),
    st.tuples(st.just("append"), st.integers(0, 99),
              st.lists(_KEYS, max_size=2), _SPECS),
    st.tuples(st.just("remove"), st.integers(0, 99),
              st.lists(_KEYS, max_size=2), _KEYS),
    # Copy an array the path went through, between the walk and its
    # store (``$a['x']['y'] = $a['x']``-like: the value is read later).
    st.tuples(st.just("copy_midway"), st.integers(0, 99),
              st.lists(_KEYS, min_size=1, max_size=2), _KEYS,
              st.integers(0, 99)),
)


def _apply(op, handles, cow):
    kind, which = op[0], op[1] % len(handles)
    if kind == "copy":
        source = handles[which]
        handles.append(source.copy() if cow else source.deep_copy())
        return
    container, path, held = handles[which], op[2], []
    for key in path:  # the engines' walk: a null cell becomes an array
        cell = container.get(key)
        if not (cell is None or isinstance(cell, PhpArray)):
            break  # a scalar or a multivalue: the engines stop here too
        held.append(container)
        if cow:
            container = container.descend(key)
        else:
            if cell is None:
                cell = PhpArray()
                container.set(key, cell)
            container = cell
    else:
        if kind == "copy_midway":
            if held:
                source = held[op[4] % len(held)]
                handles.append(source.copy() if cow else source.deep_copy())
            container.set(op[3], "late")
        elif kind == "store":
            other = handles[op[4] % len(handles)]
            container.set(op[3], other.copy() if cow else other.deep_copy())
        elif kind == "set":
            container.set(op[3], _build(op[4]))
        elif kind == "append":
            container.append(_build(op[3]))
        else:
            container.remove(op[3])
    if cow:
        for array in held:
            array.release()


@settings(max_examples=300, deadline=None)
@given(_SPECS.filter(lambda spec: isinstance(spec, tuple)
                     and spec[0] == "array"),
       st.lists(_OPS, max_size=25))
def test_no_write_through_one_handle_shows_through_another(spec, ops):
    cow, eager = [_build(spec)], [_build(spec)]
    for op in ops:
        _apply(op, cow, True)
        _apply(op, eager, False)
        assert [_snap(h) for h in cow] == [_snap(h) for h in eager], op
    # ... and the next appended key agrees, so ``_next_index`` does too.
    for handle in cow + eager:
        handle.append("end")
    assert [_snap(h) for h in cow] == [_snap(h) for h in eager]


def test_equality_by_value():
    a = PhpArray.from_dict({"x": 1, "y": PhpArray.from_list([2])})
    b = PhpArray.from_dict({"x": 1, "y": PhpArray.from_list([2])})
    assert a == b
    b.set("x", 9)
    assert a != b


def test_unhashable():
    with pytest.raises(TypeError):
        hash(PhpArray())


def test_remove():
    array = PhpArray.from_dict({"a": 1, "b": 2})
    array.remove("a")
    assert array.keys() == ["b"]
    array.remove("ghost")  # no error


# -- truthiness ----------------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (None, False), (False, False), (True, True),
    (0, False), (1, True), (-1, True),
    (0.0, False), (0.5, True),
    ("", False), ("0", False), ("00", True), ("a", True),
])
def test_truthy_scalars(value, expected):
    assert truthy(value) is expected


def test_truthy_arrays():
    assert not truthy(PhpArray())
    assert truthy(PhpArray.from_list([0]))


# -- string conversion -----------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (None, ""), (True, "1"), (False, ""),
    (3, "3"), (-2, "-2"),
    (2.0, "2"), (2.5, "2.5"),
    ("s", "s"),
])
def test_to_str(value, expected):
    assert to_str(value) == expected


def test_to_str_array_is_Array():
    assert to_str(PhpArray()) == "Array"


@pytest.mark.parametrize("value,expected", [
    (math.inf, "INF"), (-math.inf, "-INF"), (math.nan, "NAN"),
    (1e15, "1000000000000000.0"), (1e300, "1e+300"), (-0.0, "0"),
])
def test_to_str_of_floats_no_int_holds(value, expected):
    """PHP's spellings; ``int(inf)`` / ``int(nan)`` used to raise."""
    assert to_str(value) == expected


# -- numeric conversion ------------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    ("12abc", 12), ("-4", -4), ("  7 ", 7), ("x", 0), ("", 0),
    (None, 0), (True, 1), (3.9, 3),
])
def test_to_int(value, expected):
    assert to_int(value) == expected


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_to_int_of_non_finite_float_is_zero(value):
    """As PHP 7+ casts them."""
    assert to_int(value) == 0


def test_non_finite_float_keys_normalize_to_zero():
    array = PhpArray()
    array.set(math.inf, "inf")
    array.set(math.nan, "nan")
    assert array.items() == [(0, "nan")]
    assert array.get(-math.inf) == "nan"


@pytest.mark.parametrize("value,expected", [
    ("1.5x", 1.5), ("2", 2.0), ("-0.25", -0.25), ("abc", 0.0),
])
def test_to_float(value, expected):
    assert to_float(value) == expected


# -- arithmetic -----------------------------------------------------------------


def test_arith_int_division_exact_stays_int():
    assert arith("/", 6, 3) == 2
    assert isinstance(arith("/", 6, 3), int)


def test_arith_division_inexact_is_float():
    assert arith("/", 1, 2) == 0.5


def test_arith_string_coercion():
    assert arith("+", "2", "3") == 5
    assert arith("+", "2.5", 1) == 3.5


BIG = 10 ** 400  # an int no float holds


@pytest.mark.parametrize("op,left,right,expected", [
    # A quotient of two ints past the largest float: the signed INF.
    ("/", BIG, 3, math.inf), ("/", -BIG, 3, -math.inf),
    ("/", BIG, -3, -math.inf), ("/", -BIG, -3, math.inf),
    # An int no float holds against a float: exact, then rounded once.
    ("/", BIG, 0.5, math.inf), ("/", BIG, 1e300, 1e100),
    ("/", 1.5, BIG, 0.0), ("/", 0.0, BIG, 0.0), ("/", -1.5, BIG, -0.0),
    ("+", BIG, 0.5, math.inf), ("-", 0.5, BIG, -math.inf),
    ("*", BIG, 1e-300, 1e100), ("*", 0.0, BIG, 0.0), ("*", -2.0, BIG,
                                                       -math.inf),
    # A non-finite float decides: the int lends only its sign.
    ("+", math.inf, -BIG, math.inf), ("-", -BIG, math.inf, -math.inf),
    ("*", -BIG, math.inf, -math.inf), ("/", BIG, -math.inf, -0.0),
    ("/", math.inf, -BIG, -math.inf), ("+", BIG, math.nan, math.nan),
], ids=lambda value: {BIG: "BIG", -BIG: "-BIG"}.get(value))
def test_arithmetic_past_the_largest_float(op, left, right, expected):
    """Python raises ``OverflowError`` on these, which used to end the
    whole serve; the table entry and :func:`arith` give the float."""
    for got in (arith(op, left, right), BINOPS[op](left, right)):
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert (got, math.copysign(1, got)) == (
                expected, math.copysign(1, expected))


def test_exact_division_of_huge_ints_stays_int():
    assert arith("/", 10 ** 400, 10 ** 399) == 10
    assert type(arith("/", 10 ** 400, 10 ** 399)) is int


def test_division_by_zero_raises():
    with pytest.raises(WeblangError):
        arith("/", 1, 0)
    with pytest.raises(WeblangError):
        arith("%", 1, 0)


# -- equality --------------------------------------------------------------------


def test_loose_eq_numeric_cross_type():
    assert loose_eq(1, 1.0)
    assert loose_eq("5", 5)
    assert not loose_eq("5a", 5)


def test_loose_eq_bool_truthiness():
    assert loose_eq(True, 1)
    assert loose_eq(False, 0)
    assert loose_eq(False, "")


def test_loose_eq_null():
    assert loose_eq(None, None)
    assert not loose_eq(None, 0)


def test_strict_eq_requires_same_type():
    assert strict_eq(1, 1)
    assert not strict_eq(1, 1.0)
    assert not strict_eq("1", 1)
    assert not strict_eq(0, False)
    assert strict_eq(False, False)


def test_strict_eq_arrays_by_value():
    assert strict_eq(PhpArray.from_list([1]), PhpArray.from_list([1]))


# -- comparison -------------------------------------------------------------------


def test_compare_numbers_and_strings():
    assert compare("<", 1, 2)
    assert compare(">=", "b", "a")
    assert compare("<", "10", 9) is False  # numeric strings compare as numbers


@given(st.integers(), st.integers())
def test_compare_consistency(a, b):
    assert compare("<", a, b) == (a < b)
    assert compare("<=", a, b) == (a <= b)
    assert loose_eq(a, b) == (a == b)


@given(st.text(max_size=8))
def test_to_int_never_raises_on_text(s):
    assert isinstance(to_int(s), int)
