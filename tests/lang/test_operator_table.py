"""The operator table against a frozen copy of the ladders it replaced.

``FROZEN`` below is the pre-table code, verbatim: the coercions
(``truthy`` / ``to_str`` / ``to_int`` / ``to_float``), ``arith`` /
``compare`` / ``loose_eq`` / ``strict_eq``, ``PhpArray._norm_key``, and
the ladders every engine carried (``Interpreter._binop_value``,
``_apply_compound`` and the unary arm of ``_eval``).  The table must agree with it on the result *and*
the result's type, or raise the same ``WeblangError`` — over every pair
of a grid chosen to hit each coercion rule, for every operator.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import WeblangError
from repro.lang import values
from repro.lang.compile import CompInterpreter
from repro.lang.parser import parse_program
from repro.lang.values import (
    BINOPS,
    EXACT_OPS,
    PhpArray,
    _concat,
    binop,
    compound,
    exact_op,
    unop,
)
from repro.trace.events import Request


class FROZEN:
    """The operator semantics as of the commit before the table."""

    @staticmethod
    def norm_key(key):
        if isinstance(key, bool):
            return int(key)
        if isinstance(key, int):
            return key
        if isinstance(key, float):
            return int(key)
        if isinstance(key, str):
            body = key[1:] if key.startswith("-") else key
            if body and all(ch in "0123456789" for ch in body):
                as_int = int(key)
                if str(as_int) == key:
                    return as_int
            return key
        if key is None:
            return ""
        raise WeblangError(f"illegal array key {key!r}")

    @staticmethod
    def truthy(value):
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        if isinstance(value, float):
            return value != 0.0
        if isinstance(value, str):
            return value not in ("", "0")
        if isinstance(value, PhpArray):
            return len(value) > 0
        raise WeblangError(
            f"cannot test truthiness of {type(value).__name__}")

    @staticmethod
    def to_str(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else ""
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            if value == int(value) and abs(value) < 1e15:
                return str(int(value))
            return repr(value)
        if isinstance(value, str):
            return value
        if isinstance(value, PhpArray):
            return "Array"
        raise WeblangError(
            f"cannot convert {type(value).__name__} to string")

    @staticmethod
    def to_int(value):
        if value is None:
            return 0
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value)
        if isinstance(value, str):
            stripped = value.strip()
            sign = 1
            if stripped.startswith(("-", "+")):
                sign = -1 if stripped[0] == "-" else 1
                stripped = stripped[1:]
            digits = ""
            for ch in stripped:
                if ch in "0123456789":
                    digits += ch
                else:
                    break
            return sign * int(digits) if digits else 0
        if isinstance(value, PhpArray):
            return 1 if len(value) else 0
        raise WeblangError(f"cannot convert {type(value).__name__} to int")

    @staticmethod
    def to_float(value):
        if isinstance(value, float):
            return value
        if isinstance(value, str):
            stripped = value.strip()
            out = ""
            seen_dot = False
            for index, ch in enumerate(stripped):
                if ch in "0123456789":
                    out += ch
                elif ch == "." and not seen_dot:
                    seen_dot = True
                    out += ch
                elif ch in "+-" and index == 0:
                    out += ch
                else:
                    break
            return float(out) if out not in ("", "+", "-", ".") else 0.0
        return float(FROZEN.to_int(value))

    @staticmethod
    def numeric(value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value
        return None

    @staticmethod
    def numeric_string(value):
        if not isinstance(value, str):
            return None
        stripped = value.strip()
        try:
            return int(stripped)
        except ValueError:
            pass
        try:
            return float(stripped)
        except ValueError:
            return None

    @staticmethod
    def looks_float(value):
        return isinstance(value, str) and "." in value

    @staticmethod
    def arith(op, left, right):
        lnum = FROZEN.numeric(left)
        rnum = FROZEN.numeric(right)
        if lnum is None:
            lnum = (FROZEN.to_float(left) if FROZEN.looks_float(left)
                    else FROZEN.to_int(left))
        if rnum is None:
            rnum = (FROZEN.to_float(right) if FROZEN.looks_float(right)
                    else FROZEN.to_int(right))
        if op == "+":
            return lnum + rnum
        if op == "-":
            return lnum - rnum
        if op == "*":
            return lnum * rnum
        if op == "/":
            if rnum == 0:
                raise WeblangError("division by zero")
            result = lnum / rnum
            if (isinstance(lnum, int) and isinstance(rnum, int)
                    and lnum % rnum == 0):
                return lnum // rnum
            return result
        if op == "%":
            if FROZEN.to_int(rnum) == 0:
                raise WeblangError("modulo by zero")
            return FROZEN.to_int(lnum) % FROZEN.to_int(rnum)
        raise WeblangError(f"unknown arithmetic operator {op!r}")

    @staticmethod
    def loose_eq(left, right):
        if isinstance(left, bool) or isinstance(right, bool):
            return FROZEN.truthy(left) == FROZEN.truthy(right)
        lnum = FROZEN.numeric(left)
        rnum = FROZEN.numeric(right)
        if lnum is not None and rnum is not None:
            return lnum == rnum
        if lnum is not None and rnum is None:
            rstr = FROZEN.numeric_string(right)
            return rstr is not None and lnum == rstr
        if rnum is not None and lnum is None:
            lstr = FROZEN.numeric_string(left)
            return lstr is not None and lstr == rnum
        if left is None or right is None:
            return left is None and right is None
        if isinstance(left, PhpArray) and isinstance(right, PhpArray):
            return left == right
        if type(left) is type(right):
            return left == right
        return False

    @staticmethod
    def strict_eq(left, right):
        if type(left) is not type(right):
            return False
        return left == right

    @staticmethod
    def compare(op, left, right):
        lnum = FROZEN.numeric(left)
        rnum = FROZEN.numeric(right)
        if lnum is not None and rnum is not None:
            pair = (lnum, rnum)
        elif isinstance(left, str) and isinstance(right, str):
            pair = (left, right)
        else:
            pair = (FROZEN.to_float(left), FROZEN.to_float(right))
        lval, rval = pair
        if op == "<":
            return lval < rval
        if op == "<=":
            return lval <= rval
        if op == ">":
            return lval > rval
        if op == ">=":
            return lval >= rval
        raise WeblangError(f"unknown comparison {op!r}")

    @staticmethod
    def binop_value(op, left, right):
        if op == ".":
            return FROZEN.to_str(left) + FROZEN.to_str(right)
        if op == "==":
            return FROZEN.loose_eq(left, right)
        if op == "!=":
            return not FROZEN.loose_eq(left, right)
        if op == "===":
            return FROZEN.strict_eq(left, right)
        if op == "!==":
            return not FROZEN.strict_eq(left, right)
        if op in ("<", "<=", ">", ">="):
            return FROZEN.compare(op, left, right)
        return FROZEN.arith(op, left, right)

    @staticmethod
    def apply_compound(op, current, value):
        if op == ".":
            return FROZEN.to_str(current) + FROZEN.to_str(value)
        return FROZEN.arith(op, current, value)


def grid() -> list[object]:
    """Fresh values each call: arrays are mutable."""
    return [
        None, True, False, 0, 1, -7, 2.5, 1e15, "", "0", "5", " 5", "5a",
        "1.5", "-3", "abc", PhpArray(), PhpArray.from_list([1, "x"]),
    ]


def outcome(fn, *args):
    """(type name, value) of a call, or of the ``WeblangError`` it
    raised."""
    try:
        result = fn(*args)
    except WeblangError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(result, PhpArray):
        return ("PhpArray", result.items())
    return (type(result).__name__, result)


#: Every operator the parser emits, plus two no engine knows.
OPERATORS = [*BINOPS, "**", "<=>"]
#: The parser's compound forms, ``%=`` (reachable from a hand-built AST),
#: and operators that are not compound-assignable at all.
COMPOUND_OPERATORS = [".", "+", "-", "*", "/", "%", "==", "<", "**"]


def test_the_table_covers_every_parsed_operator():
    from repro.lang import parser

    parsed = {op for level in parser._Parser._BIN_LEVELS for op in level}
    assert parsed - {"&&", "||"} == set(BINOPS)
    assert set(parser._COMPOUND_OPS.values()) <= set(COMPOUND_OPERATORS)


@pytest.mark.parametrize("op", OPERATORS)
def test_binary_operator_agrees_with_the_frozen_ladder(op):
    apply = binop(op)
    for row, left in enumerate(grid()):
        for col, right in enumerate(grid()):
            assert outcome(apply, left, right) == outcome(
                FROZEN.binop_value, op, grid()[row], grid()[col]
            ), (op, left, right)


@pytest.mark.parametrize("op", COMPOUND_OPERATORS)
def test_compound_operator_agrees_with_the_frozen_ladder(op):
    apply = compound(op)
    for row, current in enumerate(grid()):
        for col, value in enumerate(grid()):
            assert outcome(apply, current, value) == outcome(
                FROZEN.apply_compound, op, grid()[row], grid()[col]
            ), (op, current, value)


def test_unary_operators_agree_with_the_frozen_ladder():
    """``Interpreter._eval``'s UnOp arm: ``!`` is ``not truthy``, ``-``
    is ``arith("-", 0, value)`` (so ``-0.0`` stays ``0.0``), anything
    else raises once the operand has been evaluated."""
    for value in [*grid(), 0.0, -0.0]:
        assert outcome(unop("!"), value) == outcome(
            lambda v: not FROZEN.truthy(v), value)
        assert outcome(unop("-"), value) == outcome(
            FROZEN.arith, "-", 0, value)
        assert outcome(unop("~"), value) == (
            "WeblangError", "unknown unary operator '~'")


@pytest.mark.parametrize("name", ["truthy", "to_str", "to_int", "to_float"])
def test_coercions_agree_with_the_frozen_copy(name):
    """``INF`` / ``NAN`` too, except for ``to_str`` / ``to_int``: the
    frozen ones crashed on them (``OverflowError`` / ``ValueError``),
    where PHP prints them and casts them to ``0``
    (``tests/lang/test_values.py`` pins that)."""
    non_finite = [] if name in ("to_str", "to_int") else [
        float("inf"), float("-inf"), float("nan")]
    for value in [*grid(), -0.0, 3.9, 1e300, *non_finite, "+", "-", "."]:
        assert outcome(getattr(values, name), value) == outcome(
            getattr(FROZEN, name), value), (name, value)


def test_general_functions_still_agree_with_their_frozen_copies():
    """``arith`` / ``compare`` / ``loose_eq`` / ``strict_eq`` are what the
    table falls through to; they must not have drifted either."""
    for left in grid():
        for right in grid():
            for op in ("+", "-", "*", "/", "%", "?"):
                assert outcome(values.arith, op, left, right) == outcome(
                    FROZEN.arith, op, left, right)
            for op in ("<", "<=", ">", ">=", "?"):
                assert outcome(values.compare, op, left, right) == outcome(
                    FROZEN.compare, op, left, right)
            assert values.loose_eq(left, right) is FROZEN.loose_eq(
                left, right)
            assert values.strict_eq(left, right) is FROZEN.strict_eq(
                left, right)


@pytest.mark.parametrize("key", [
    "007", "-0", "-", "", "²", "١٢", "-١", True, False, 3.9, -3.9, None,
    0, 12, -12, "12", "-12", "1.0", " 1", "1 ", "+1", "9" * 30,
    PhpArray(), (1,),
])
def test_norm_key_agrees_with_the_frozen_copy(key):
    """bool is an int, and ``str.isdigit`` is true of non-ASCII digits:
    neither may leak into the exact-type fast paths."""
    assert outcome(PhpArray._norm_key, key) == outcome(FROZEN.norm_key, key)


def test_array_round_trip_through_normalized_keys():
    array = PhpArray()
    for key in ("007", "7", 7, True, "²", None, 3.9):
        array.set(key, repr(key))
    assert array.items() == [
        ("007", "'007'"), (7, "7"), (1, "True"), ("²", "'²'"),
        ("", "None"), (3, "3.9"),
    ]


# -- the exact-type fast table ------------------------------------------------

#: Ints around the machine-word edges as well as hypothesis's own.
INTS = st.integers() | st.sampled_from([0, -1, 2 ** 62, 2 ** 63, -(2 ** 63)])


@given(st.sampled_from(sorted(op for op, (kind, _) in EXACT_OPS.items()
                              if kind is int)), INTS, INTS)
def test_exact_int_ops_are_the_table_entries(op, left, right):
    """On two exact ints the plain operator the compiled engine applies
    in line is the table entry, value and type."""
    kind, plain = exact_op(op, right)
    if op == "%" and right == 0:
        assert (kind, plain) == (None, None)
        return
    assert kind is int
    expected = BINOPS[op](left, right)
    got = plain(left, right)
    assert (type(got), got) == (type(expected), expected)


@given(st.text(), st.text())
def test_exact_concat_is_the_table_entry(left, right):
    kind, plain = exact_op(".")
    assert kind is str
    assert plain(left, right) == _concat(left, right)


def test_no_plain_form_where_the_table_decides_by_value():
    assert exact_op("/") == exact_op("/", 2) == (None, None)
    assert exact_op("%") == exact_op("%", 0) == exact_op("%", True) \
        == (None, None)
    assert exact_op("&&") == exact_op("**") == (None, None)
    # A known right operand of another type: no plain form either.
    assert exact_op("+", True) == exact_op("+", 1.5) == exact_op("+", "1") \
        == exact_op(".", 1) == (None, None)


@pytest.mark.parametrize("expr", [
    "$x % 0", "$x % -0", "$x % $z", "($x + 1) % 0", "($x + 1) % $z",
])
def test_modulo_by_int_zero_still_raises_the_tables_error(expr):
    """Every fused binop shape (variable or closure on the left,
    constant or variable on the right) falls back to the entry."""
    with pytest.raises(WeblangError) as expected:
        BINOPS["%"](7, 0)
    program = parse_program(f"$x = 7; $z = 0; echo {expr};")
    with pytest.raises(WeblangError) as raised:
        next(CompInterpreter().run(program, Request("r0", "mod.php")))
    assert str(raised.value) == str(expected.value)
