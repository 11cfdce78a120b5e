"""Runtime values and coercions shared by both interpreters.

Value universe: ``None``, ``bool``, ``int``, ``float``, ``str``, and
:class:`PhpArray` (PHP's single ordered-map array type, serving as both
list and dict).  Coercion rules follow PHP closely enough for web-app code
while staying deterministic and identical between the plain and compiled
engines — that identity is what Lemma 8 / "difference (ii)" of the
paper's proof requires of an implementation.

Arrays follow PHP's value semantics: both interpreters copy an array when
it flows out of a variable or cell into a new storage location (assignment,
argument passing, return, foreach binding, array-literal cells).  Aliasing
across variables is therefore impossible, which is also what makes per-slot
multivalue expansion sound in the compiled engine.

The copy is PHP's own, copy-on-write: :meth:`PhpArray.copy` is an O(1)
handle on the same dict, and the first ``set`` / ``append`` / ``remove``
through a handle that shares it gives it a dict of its own, whose nested
arrays are handles in turn.  A write below the top goes down through the
write accessor :meth:`PhpArray.descend`, never through ``get``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial
from sys import getrefcount
from typing import Any

from repro.common.errors import WeblangError

Key = int | str

#: What a canonical integer string starts with.
_INT_STARTS = frozenset("-0123456789")


class PhpArray:
    """PHP-style array: one insertion-ordered map with int/str keys.

    ``append`` uses the next-integer-index rule: the key is one more than
    the largest integer key ever inserted (PHP semantics).
    """

    __slots__ = ("data", "_next_index", "_shared", "_pins")

    def __init__(self) -> None:
        self.data: dict[Key, object] = {}
        self._next_index = 0
        self._shared = False  # ``data`` may be another handle's too
        self._pins = 0  # open :meth:`descend` calls (see :meth:`copy`)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_list(items: list[object]) -> PhpArray:
        """``items`` at keys 0, 1, ...; an array among them lands by copy."""
        array = PhpArray()
        array.data = {
            index: item.copy() if type(item) is PhpArray else item
            for index, item in enumerate(items)
        }
        array._next_index = len(array.data)
        return array

    @staticmethod
    def from_records(records: list[dict[str, object]]) -> PhpArray:
        """``from_list([from_dict(r) for r in records])``, turning the names
        a query's rows share into keys once, not once per cell."""
        out = PhpArray()
        names: tuple[str, ...] = ()
        keys: list[Key] = []
        top = 0
        for index, record in enumerate(records):
            shape = tuple(record)
            if shape != names:
                names, keys, top = shape, list(map(PhpArray._norm_key, shape)), 0
                for key in keys:
                    if type(key) is int and key >= top:
                        top = key + 1
            array = out.data[index] = PhpArray()
            array.data = dict(zip(keys, record.values()))
            array._next_index = top
        out._next_index = len(out.data)
        return out

    @staticmethod
    def from_data(data: dict[Key, object], next_index: int) -> PhpArray:
        """The array on ``data`` (normalised keys, no other array's)."""
        array = PhpArray()
        array.data = data
        array._next_index = next_index
        return array

    @staticmethod
    def from_dict(mapping: dict[Key, object]) -> PhpArray:
        array = PhpArray()
        for key, value in mapping.items():
            array.set(key, value)
        return array

    # -- mutation --------------------------------------------------------------

    @staticmethod
    def _norm_key(key: object) -> Key:
        """PHP normalizes bool/float/numeric-string keys to int."""
        if type(key) is int:  # exact: True is an int too, and becomes 1
            return key
        if isinstance(key, str):
            if key[:1] not in _INT_STARTS:  # most keys: no integer
                return key
            # Canonical integer strings become int keys, as in PHP
            # (ASCII digits only: "²".isdigit() is true too).
            body = key[1:] if key.startswith("-") else key
            if body.isdigit() and body.isascii():
                try:
                    as_int = int(key)
                except ValueError:  # past CPython's int/str digit limit:
                    return key  # a string key, like PHP's past PHP_INT_MAX
                if str(as_int) == key:
                    return as_int
            return key
        if isinstance(key, (bool, float)):
            return to_int(key)
        if isinstance(key, int):
            return key
        if key is None:
            return ""
        raise WeblangError(f"illegal array key {key!r}")

    def _separate(self) -> None:
        """Give this handle a dict of its own, unless the ``data`` slot and
        the argument are the only references left to it (PHP's refcount)."""
        if getrefcount(self.data) > 2:
            self.data = {
                key: value.copy() if type(value) is PhpArray else value
                for key, value in self.data.items()
            }
        self._shared = False

    def set(self, key: object, value: object) -> None:
        self.put(self._norm_key(key), value)

    def put(self, norm: Key, value: object) -> None:
        """:meth:`set` at a key :meth:`_norm_key` returned."""
        if self._shared:
            self._separate()
        self.data[norm] = value
        if isinstance(norm, int) and norm >= self._next_index:
            self._next_index = norm + 1

    def append(self, value: object) -> None:
        if self._shared:
            self._separate()
        self.data[self._next_index] = value
        self._next_index += 1

    def descend(self, key: object) -> object:
        """The write accessor of a path ``$a[k1][k2]... = v``: the cell at
        ``key`` in this array's own dict (null becomes an empty array).
        Until :meth:`release`, a copy of this array is made in full: a
        handle would share the dict the caller writes below."""
        norm = self._norm_key(key)
        if self._shared:
            self._separate()
        self._pins += 1
        inner = self.data.get(norm)
        if inner is None:
            inner = PhpArray()
            self.put(norm, inner)
        return inner

    def release(self) -> None:
        """Close one :meth:`descend`: the write below it is done."""
        self._pins -= 1

    def get(self, key: object) -> object:
        return self.data.get(self._norm_key(key))

    def has(self, key: object) -> bool:
        return self._norm_key(key) in self.data

    def remove(self, key: object) -> None:
        if self._shared:
            self._separate()
        self.data.pop(self._norm_key(key), None)

    # -- views -------------------------------------------------------------

    def keys(self) -> list[Key]:
        return list(self.data.keys())

    def values(self) -> list[object]:
        return list(self.data.values())

    def items(self) -> list[tuple[Key, object]]:
        return list(self.data.items())

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.data)

    def copy(self) -> PhpArray:
        """The value-semantics copy: an O(1) handle on the same dict (module
        docstring), or in full while a :meth:`descend` is open."""
        if self._pins:
            return self.deep_copy()
        twin = PhpArray()
        twin.data = self.data
        twin._next_index = self._next_index
        twin._shared = self._shared = True
        return twin

    def deep_copy(self) -> PhpArray:
        twin = PhpArray()
        twin._next_index = self._next_index
        for key, value in self.data.items():
            if isinstance(value, PhpArray):
                twin.data[key] = value.deep_copy()
            else:
                twin.data[key] = value
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhpArray):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("PhpArray is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.data.items())
        return f"PhpArray({{{inner}}})"


def freeze_value(value: object) -> object:
    """Deep-freeze a weblang value into hashable, comparable form.

    Shared objects store frozen values so that operation-log entries are
    value-comparable (CheckOp equality) and immune to later mutation by the
    program.
    """
    if isinstance(value, PhpArray):
        return (
            "__phparray__",
            tuple((key, freeze_value(item)) for key, item in value.items()),
        )
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise WeblangError(f"cannot store {type(value).__name__} in an object")


def thaw_value(value: object) -> object:
    """Inverse of :func:`freeze_value`."""
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "__phparray__":
        array = PhpArray()
        for key, item in value[1]:
            array.set(key, thaw_value(item))
        return array
    return value


# --------------------------------------------------------------------------
# Coercions
# --------------------------------------------------------------------------


def truthy(value: object) -> bool:
    """PHP truthiness: "", "0", 0, 0.0, null, [] are false."""
    kind = type(value)
    if kind is bool or kind is int:
        return value != 0
    if kind is str:
        return value != "" and value != "0"
    if value is None:
        return False
    if isinstance(value, int):
        return value != 0
    if isinstance(value, float):
        return value != 0.0
    if isinstance(value, str):
        return value not in ("", "0")
    if isinstance(value, PhpArray):
        return len(value) > 0
    raise WeblangError(f"cannot test truthiness of {type(value).__name__}")


def to_str(value: object) -> str:
    """String conversion, used by echo and the ``.`` operator."""
    if type(value) is str:
        return value
    if type(value) is int:
        try:
            return str(value)
        except ValueError:  # past CPython's int/str digit limit
            raise WeblangError("integer too long to print") from None
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, int):
        return to_str(int(value))
    if isinstance(value, float):
        if abs(value) < 1e15 and value == int(value):
            return str(int(value))
        if math.isfinite(value):
            return repr(value)
        return "NAN" if math.isnan(value) else "INF" if value > 0 else "-INF"
    if isinstance(value, str):
        return value
    if isinstance(value, PhpArray):
        return "Array"
    raise WeblangError(f"cannot convert {type(value).__name__} to string")


def to_int(value: object) -> int:
    if type(value) is int:
        return value
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if math.isfinite(value) else 0  # PHP 7+
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
        try:
            return sign * int(digits) if digits else 0
        except ValueError:  # past CPython's int/str digit limit
            raise WeblangError(f"{len(digits)}-digit integer") from None
    if isinstance(value, PhpArray):
        return 1 if len(value) else 0
    raise WeblangError(f"cannot convert {type(value).__name__} to int")


def to_float(value: object) -> float:
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
        try:
            return float(out) if out not in ("", "+", "-", ".") else 0.0
        except ValueError:  # pragma: no cover - filtered above
            return 0.0
    number = to_int(value)
    try:
        return float(number)
    except OverflowError:  # past the largest float: INF, as ``$x + 0.5`` is
        return math.inf if number > 0 else -math.inf


def _numeric(value: object) -> int | float | None:
    """Return the numeric interpretation if the value is number-like."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return None


def _numeric_string(value: object) -> int | float | None:
    """The numeric value of a fully-numeric string, else None."""
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


def arith(op: str, left: object, right: object) -> object:
    """Arithmetic with PHP-ish coercion (strings coerce to numbers)."""
    lnum = _numeric(left)
    rnum = _numeric(right)
    if lnum is None:
        lnum = to_float(left) if _looks_float(left) else to_int(left)
    if rnum is None:
        rnum = to_float(right) if _looks_float(right) else to_int(right)
    plain = _ARITH.get(op)
    if op == "/":
        if rnum == 0:
            raise WeblangError("division by zero")
        if isinstance(lnum, int) and isinstance(rnum, int) and lnum % rnum == 0:
            return lnum // rnum
        plain = operator.truediv
    elif op == "%":
        if to_int(rnum) == 0:
            raise WeblangError("modulo by zero")
        return to_int(lnum) % to_int(rnum)
    elif plain is None:
        raise WeblangError(f"unknown arithmetic operator {op!r}")
    try:
        return plain(lnum, rnum)
    except OverflowError:
        return _past_float(plain, lnum, rnum)


def _past_float(plain: Callable, left: int | float,
                right: int | float) -> float:
    """``plain(left, right)`` where Python raised ``OverflowError``: an
    int no float holds met a float, or two ints' quotient is past the
    largest float.  The result is worked exactly and rounded once, and
    one no float holds is the signed ``INF``.  A float ``INF`` / ``NAN``
    operand decides the result alone: the int lends it only its sign."""
    if any(type(v) is float and not math.isfinite(v) for v in (left, right)):
        left, right = (v if type(v) is float else 1.0 if v > 0 else -1.0
                       for v in (left, right))
        return plain(left, right)
    exact = plain(Fraction(left), Fraction(right))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _looks_float(value: object) -> bool:
    return isinstance(value, str) and "." in value


def loose_eq(left: object, right: object) -> bool:
    """The ``==`` operator.

    Simplified PHP juggling: numbers compare numerically (int vs float ok);
    bools compare by truthiness against anything; otherwise same-type value
    equality.  Deterministic, and identical across both interpreters.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return truthy(left) == truthy(right)
    lnum = _numeric(left)
    rnum = _numeric(right)
    if lnum is not None and rnum is not None:
        return lnum == rnum
    # PHP juggling: a number against a numeric string compares numerically
    # ("5" == 5 is true; "5a" == 5 is not — PHP 8 semantics).
    if lnum is not None and rnum is None:
        rstr = _numeric_string(right)
        return rstr is not None and lnum == rstr
    if rnum is not None and lnum is None:
        lstr = _numeric_string(left)
        return lstr is not None and lstr == rnum
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, PhpArray) and isinstance(right, PhpArray):
        return left == right
    if type(left) is type(right):
        return left == right
    return False


def strict_eq(left: object, right: object) -> bool:
    """The ``===`` operator: same type and same value (no juggling)."""
    return type(left) is type(right) and left == right


def compare(op: str, left: object, right: object) -> bool:
    """Relational comparison (< <= > >=)."""
    lnum = _numeric(left)
    rnum = _numeric(right)
    if lnum is not None and rnum is not None:
        pair = (lnum, rnum)
    elif isinstance(left, str) and isinstance(right, str):
        pair = (left, right)
    else:
        pair = (to_float(left), to_float(right))
    test = _ORDERINGS.get(op)
    if test is None:
        raise WeblangError(f"unknown comparison {op!r}")
    return test(*pair)


_ORDERINGS = {"<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}


# --------------------------------------------------------------------------
# The operator table
# --------------------------------------------------------------------------
#
# Both engines take their operators from here, so "which operator" is
# decided once per AST node (interp) or per compiled node (compile, which
# maps the entry over the slots of a multivalue), not once per evaluation.  Each entry tests
# the exact types that dominate real programs (``type(x) is int``: a bool
# never passes for a number) and falls through to the coercing functions
# above, which stay the semantic reference.


def _numbers(op: str, plain: Callable) -> Callable[[object, object], object]:
    """``plain`` on two exact ints/floats, :func:`arith` otherwise —
    and where ``plain`` overflows (an int no float holds met a float)."""
    def apply(left: object, right: object) -> object:
        lkind, rkind = type(left), type(right)
        if (lkind is int or lkind is float) and (rkind is int
                                                 or rkind is float):
            try:
                return plain(left, right)
            except OverflowError:
                pass
        return arith(op, left, right)

    return apply


def _same_type(plain: Callable, general: Callable
               ) -> Callable[[object, object], bool]:
    """``plain`` on two ints, two floats or two strs; ``general``
    (which juggles types) otherwise."""
    def apply(left: object, right: object) -> bool:
        kind = type(left)
        if kind is type(right) and (kind is int or kind is str
                                    or kind is float):
            return plain(left, right)
        return general(left, right)

    return apply


def _concat(left: object, right: object) -> str:
    if type(left) is str and type(right) is str:
        return left + right
    return to_str(left) + to_str(right)


def _mod(left: object, right: object) -> object:
    if type(left) is int and type(right) is int and right:
        return left % right
    return arith("%", left, right)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: operator -> two-argument value function (``&&`` / ``||`` short-circuit
#: and live in the engines).
BINOPS: dict[str, Callable[[object, object], object]] = {
    ".": _concat,
    **{op: _numbers(op, plain) for op, plain in _ARITH.items()},
    "/": partial(arith, "/"),
    "%": _mod,
    "==": _same_type(operator.eq, loose_eq),
    "!=": _same_type(operator.ne, lambda a, b: not loose_eq(a, b)),
    "===": strict_eq,
    "!==": lambda a, b: not strict_eq(a, b),
    **{op: _same_type(test, partial(compare, op))
       for op, test in _ORDERINGS.items()},
}

#: operator -> ``(T, plain)``: on two operands of exactly type ``T``
#: (``type(x) is T``, so a bool is never an int here), ``plain(l, r)`` is
#: ``BINOPS[op](l, r)``, value and type — the plain operator each entry
#: above already tries first, which the compiled engine applies in line.
#: ``%`` holds for a non-zero divisor only (see :func:`exact_op`); ``/``
#: has no plain form (``4 / 2`` is ``2``, ``3 / 2`` is ``1.5``).
EXACT_OPS: dict[str, tuple[type, Callable[[object, object], object]]] = {
    ".": (str, operator.add),
    **{op: (int, plain) for op, plain in {
        **_ARITH, **_ORDERINGS, "%": operator.mod,
        "==": operator.eq, "!=": operator.ne,
        "===": operator.eq, "!==": operator.ne,
    }.items()},
}


_UNKNOWN = object()


def exact_op(op: str, right: object = _UNKNOWN
             ) -> tuple[type | None, Any]:
    """``EXACT_OPS[op]``, or ``(None, None)`` where ``op`` has no plain
    form — nor where the right operand, when it is known before the left
    one is evaluated, is not of the entry's type; ``%`` has one only for
    a known, non-zero int.  ``type(x) is None`` never holds, so a caller
    tests the left operand's type without testing for ``None`` first."""
    kind, plain = EXACT_OPS.get(op, (None, None))
    if right is _UNKNOWN:
        return (None, None) if op == "%" else (kind, plain)
    if type(right) is not kind or (op == "%" and not right):
        return None, None
    return kind, plain


#: The two unary operators.
UNOPS: dict[str, Callable[[object], object]] = {
    "!": lambda value: not truthy(value),
    "-": partial(arith, "-", 0),
}


def binop(op: str) -> Callable[[object, object], object]:
    """The value function of binary operator ``op``.  One the table
    lacks resolves to :func:`arith`, which coerces its operands and then
    raises — what every engine did with it before there was a table."""
    return BINOPS.get(op) or partial(arith, op)


def unop(op: str) -> Callable[[object], object]:
    """The value function of unary ``op``; an unknown one raises when
    applied (the operand has been evaluated by then)."""
    def unknown(_value: object) -> object:
        raise WeblangError(f"unknown unary operator {op!r}")

    return UNOPS.get(op, unknown)


def compound(op: str) -> Callable[[object, object], object]:
    """The value function of ``$x op= value`` (current value on the
    left): concatenation or arithmetic, nothing else."""
    return BINOPS[op] if op in (".", "+", "-", "*", "/", "%") \
        else partial(arith, op)
