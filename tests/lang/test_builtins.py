"""Pure built-in functions."""

from __future__ import annotations

import math

import pytest

from repro.common.errors import WeblangError
from repro.lang.builtins import PURE_BUILTINS
from repro.lang.compile import CompInterpreter
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import PhpArray
from repro.trace.events import Request
from tests.lang.driver import finish


def call(name, *args):
    return PURE_BUILTINS[name](*args)


def arr(*items):
    return PhpArray.from_list(list(items))


# -- strings -----------------------------------------------------------------


def test_strlen():
    assert call("strlen", "abc") == 3
    assert call("strlen", 1234) == 4


def test_substr():
    assert call("substr", "hello", 1) == "ello"
    assert call("substr", "hello", 1, 3) == "ell"
    assert call("substr", "hello", -3) == "llo"
    assert call("substr", "hello", 0, -1) == "hell"


def test_strpos():
    assert call("strpos", "hello", "ll") == 2
    assert call("strpos", "hello", "zz") is False
    assert call("strpos", "aaa", "a", 1) == 1


def test_str_replace_case_funcs():
    assert call("str_replace", "a", "b", "banana") == "bbnbnb"
    assert call("strtolower", "AbC") == "abc"
    assert call("strtoupper", "AbC") == "ABC"
    assert call("ucfirst", "abc") == "Abc"


def test_trim_pad_repeat():
    assert call("trim", "  x  ") == "x"
    assert call("str_repeat", "ab", 3) == "ababab"
    assert call("str_pad", "5", 3, "0") == "500"
    assert call("str_pad", "abcd", 3) == "abcd"


def test_explode_implode():
    parts = call("explode", ",", "a,b,c")
    assert parts.values() == ["a", "b", "c"]
    assert call("implode", "-", parts) == "a-b-c"
    with pytest.raises(WeblangError):
        call("explode", "", "abc")


def test_sprintf():
    assert call("sprintf", "%05d|%.2f|%s|%x", 42, 3.14159, "s", 255) \
        == "00042|3.14|s|ff"
    assert call("sprintf", "100%%") == "100%"
    with pytest.raises(WeblangError):
        call("sprintf", "%d")


def test_htmlspecialchars():
    assert call("htmlspecialchars", "<a href=\"x\">&'") \
        == "&lt;a href=&quot;x&quot;&gt;&amp;&#039;"


def test_md5_deterministic():
    assert call("md5", "abc") == "900150983cd24fb0d6963f7d28e17f72"


def test_number_format():
    assert call("number_format", 1234567.891, 2) == "1,234,567.89"
    assert call("number_format", 1234) == "1,234"


def _run(engine, source):
    """The body ``source`` echoes on ``engine``, or its error's text."""
    output = finish(engine.run(parse_program(source), Request("r1", "nf.php")))
    if isinstance(output, WeblangError):
        return f"error: {output}"
    (body,) = output.bodies
    return body


@pytest.mark.parametrize("engine", [Interpreter, CompInterpreter])
def test_number_format_decimals_out_of_range(engine):
    """Negative decimals count as none (PHP up to 8.2); a count the
    formatter refuses is a ``WeblangError``, never a ``ValueError``,
    which would end the serve of every request beside this one."""
    assert _run(engine(), "echo number_format(1234.4, -1), '|', "
                "number_format(1.25, -3), '|', number_format(7, 1);") \
        == "1,234|1|7.0"
    for decimals in ("2147483648", "9223372036854775807"):
        assert _run(engine(), f"echo number_format(1.5, {decimals});") \
            .startswith("error: number_format(): ")


# -- arrays -----------------------------------------------------------------


def test_count_keys_values():
    array = PhpArray.from_dict({"a": 1, "b": 2})
    assert call("count", array) == 2
    assert call("array_keys", array).values() == ["a", "b"]
    assert call("array_values", array).values() == [1, 2]


def test_array_key_exists_in_array():
    array = PhpArray.from_dict({"a": 1})
    assert call("array_key_exists", "a", array)
    assert not call("array_key_exists", "z", array)
    assert call("in_array", 1, array)
    assert call("in_array", "1", array)  # loose comparison, like PHP
    assert not call("in_array", 2, array)


def test_array_merge():
    merged = call("array_merge", arr(1, 2),
                  PhpArray.from_dict({"k": "v", 0: 99}))
    assert merged.values() == [1, 2, "v", 99]


def test_array_slice_reverse():
    assert call("array_slice", arr(1, 2, 3, 4), 1, 2).values() == [2, 3]
    assert call("array_slice", arr(1, 2, 3), 1).values() == [2, 3]
    assert call("array_reverse", arr(1, 2, 3)).values() == [3, 2, 1]


def test_sort_returns_new_array():
    original = arr(3, 1, 2)
    sorted_arr = call("sort", original)
    assert sorted_arr.values() == [1, 2, 3]
    assert original.values() == [3, 1, 2]
    assert call("rsort", original).values() == [3, 2, 1]


def test_sort_mixed_types():
    assert call("sort", arr("b", 2, None, "a", 1)).values() == \
        [None, 1, 2, "a", "b"]


def test_range():
    assert call("range", 1, 4).values() == [1, 2, 3, 4]
    assert call("range", 3, 1).values() == [3, 2, 1]


def test_array_push():
    array = arr(1)
    assert call("array_push", array, 2, 3) == 3
    assert array.values() == [1, 2, 3]


# -- math / predicates ---------------------------------------------------------


def test_max_min():
    assert call("max", arr(3, 1, 2)) == 3
    assert call("max", 3, 9, 2) == 9
    assert call("min", arr(3, 1, 2)) == 1
    with pytest.raises(WeblangError):
        call("max", arr())


def test_rounding():
    assert call("floor", 2.7) == 2
    assert call("ceil", 2.1) == 3
    assert call("round", 2.5) == 2  # banker's rounding, deterministic
    assert call("round", 2.567, 2) == 2.57
    assert call("abs", -5) == 5


@pytest.mark.parametrize("name", ["floor", "ceil", "round"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_rounding_an_infinite_float_returns_it(name, value):
    """No int holds INF: the float comes back unchanged, as in PHP."""
    assert call(name, value) == value


@pytest.mark.parametrize("name", ["floor", "ceil", "round"])
def test_rounding_nan_returns_nan(name):
    assert math.isnan(call(name, math.nan))
    assert math.isnan(call("round", math.nan, 2))
    assert call("round", math.inf, -1) == math.inf


def test_conversions():
    assert call("intval", "42abc") == 42
    assert call("floatval", "2.5x") == 2.5
    assert call("strval", 2.0) == "2"
    assert call("boolval", "0") is False


def test_predicates():
    assert call("is_null", None)
    assert not call("is_null", 0)
    assert call("is_array", arr())
    assert call("is_numeric", "3.5")
    assert not call("is_numeric", "3x")
    assert call("empty", "")
    assert not call("empty", "x")


def test_sql_quote():
    assert call("sql_quote", "o'brien") == "'o''brien'"
    assert call("sql_quote", 5) == "5"
    assert call("sql_quote", None) == "NULL"
    assert call("sql_quote", True) == "1"
    assert call("sql_quote", 2.5) == "2.5"


def test_arity_errors():
    with pytest.raises(WeblangError):
        call("strlen")
    with pytest.raises(WeblangError):
        call("count", arr(), arr())


def test_array_required():
    with pytest.raises(WeblangError):
        call("count", "not an array")
