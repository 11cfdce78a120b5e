"""Weblang value semantics: PhpArray, truthiness, coercions, operators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
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
