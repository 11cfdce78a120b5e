"""Pure built-in functions for weblang.

Three built-in classes exist in weblang, mirroring OROCHI's treatment:

* **pure** built-ins (this module): deterministic functions of their
  arguments.  The compiled engine may invoke them on multivalues by
  *splitting* (§4.3): it calls the function once per component, deep-copying
  array arguments when the built-in is marked mutating, and merges results
  back into a multivalue.
* **non-deterministic** built-ins (``time``, ``rand``, ``uniqid``,
  ``getpid``, ``microtime``): the engine yields a
  :class:`~repro.lang.interp.NondetIntent` (one slot's arguments per
  request); online, the executor evaluates and records the value (§4.6);
  at audit, the verifier feeds the recorded value and checks plausibility.
* **state-operation** built-ins (``db_query`` etc.): the engine yields a
  :class:`~repro.lang.interp.StateOpIntent`, per-slot object and operands.

Deviations from PHP, chosen for determinism and documented in DESIGN.md:
``sort``/``rsort`` return a new array instead of mutating by reference
(weblang has no by-reference arguments); ``array_push`` is therefore the
only mutating built-in and exists mainly to exercise the compiled
engine's deep-copy split path.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable

from repro.common.errors import WeblangError
from repro.lang.values import (
    PhpArray,
    loose_eq,
    to_float,
    to_int,
    to_str,
    truthy,
)

NONDET_BUILTINS = ("time", "microtime", "rand", "mt_rand", "uniqid", "getpid")

STATE_BUILTINS = (
    "db_query", "db_exec", "db_begin", "db_commit", "db_rollback",
    "kv_get", "kv_set", "session_get", "session_put",
    "reg_read", "reg_write",
)

#: Outbound external-service built-ins (§5.5 extension): captured in the
#: trace and verified like responses, not logged as object operations.
EXTERNAL_BUILTINS = ("send_email", "external_call")

#: Built-ins that mutate an array argument (need deep-copy when split).
MUTATING_BUILTINS = frozenset({"array_push"})

#: Request-input built-ins: deterministic functions of the recorded
#: request, hence effect-free for analysis purposes (the interpreter and
#: compiler resolve them before every other class).
REQUEST_INPUT_BUILTINS = ("param", "post_param", "cookie")


# -- static effect classification --------------------------------------------
#
# Effect atoms of the analyzer's lattice (repro.lang.analysis); "pure" is
# the empty set.  Every builtin is classified exactly once, here, next to
# the builtin tables themselves, so a builtin added without a
# classification fails the analyzer's coverage test.

EFFECT_STATE_READ = "state-read"
EFFECT_STATE_WRITE = "state-write"
EFFECT_NONDET = "nondet"
EFFECT_EXTERNAL = "external"

EFFECTS_NONE: frozenset = frozenset()

#: Which state built-ins read vs write shared objects.  ``db_query`` and
#: ``db_exec`` are classified read+write: the statement *text* decides,
#: and only the analyzer — when the SQL argument constant-folds — can
#: refine the footprint to the actual tables.
_STATE_EFFECTS: dict = {
    "db_query": frozenset({EFFECT_STATE_READ, EFFECT_STATE_WRITE}),
    "db_exec": frozenset({EFFECT_STATE_READ, EFFECT_STATE_WRITE}),
    "db_begin": frozenset({EFFECT_STATE_WRITE}),
    "db_commit": frozenset({EFFECT_STATE_WRITE}),
    "db_rollback": frozenset({EFFECT_STATE_WRITE}),
    "kv_get": frozenset({EFFECT_STATE_READ}),
    "kv_set": frozenset({EFFECT_STATE_WRITE}),
    "session_get": frozenset({EFFECT_STATE_READ}),
    "session_put": frozenset({EFFECT_STATE_WRITE}),
    "reg_read": frozenset({EFFECT_STATE_READ}),
    "reg_write": frozenset({EFFECT_STATE_WRITE}),
}


def _stored(value: object) -> object:
    """``value`` taken out of an array: an array lands by copy."""
    return value.copy() if type(value) is PhpArray else value


def _arity(name: str, args: tuple, low: int, high: int | None = None) -> None:
    high = low if high is None else high
    if not (low <= len(args) <= high):
        raise WeblangError(
            f"{name}() expects {low}"
            + (f"..{high}" if high != low else "")
            + f" arguments, got {len(args)}"
        )


def _need_array(name: str, value: object) -> PhpArray:
    if not isinstance(value, PhpArray):
        raise WeblangError(f"{name}() expects an array argument")
    return value


# -- strings -----------------------------------------------------------------


def _strlen(*args: object) -> int:
    _arity("strlen", args, 1)
    return len(to_str(args[0]))


def _substr(*args: object) -> str:
    _arity("substr", args, 2, 3)
    text = to_str(args[0])
    start = to_int(args[1])
    if start < 0:
        start = max(0, len(text) + start)
    if len(args) == 3:
        length = to_int(args[2])
        if length < 0:
            return text[start : len(text) + length]
        return text[start : start + length]
    return text[start:]


def _strpos(*args: object) -> object:
    _arity("strpos", args, 2, 3)
    haystack = to_str(args[0])
    needle = to_str(args[1])
    offset = to_int(args[2]) if len(args) == 3 else 0
    index = haystack.find(needle, offset)
    return False if index < 0 else index


def _str_replace(*args: object) -> str:
    _arity("str_replace", args, 3)
    return to_str(args[2]).replace(to_str(args[0]), to_str(args[1]))


def _strtolower(*args: object) -> str:
    _arity("strtolower", args, 1)
    return to_str(args[0]).lower()


def _strtoupper(*args: object) -> str:
    _arity("strtoupper", args, 1)
    return to_str(args[0]).upper()


def _ucfirst(*args: object) -> str:
    _arity("ucfirst", args, 1)
    text = to_str(args[0])
    return text[:1].upper() + text[1:]


def _trim(*args: object) -> str:
    _arity("trim", args, 1)
    return to_str(args[0]).strip()


def _str_repeat(*args: object) -> str:
    _arity("str_repeat", args, 2)
    return to_str(args[0]) * to_int(args[1])


def _str_pad(*args: object) -> str:
    _arity("str_pad", args, 2, 3)
    text = to_str(args[0])
    width = to_int(args[1])
    pad = to_str(args[2]) if len(args) == 3 else " "
    if not pad or width <= len(text):
        return text
    while len(text) < width:
        text += pad
    return text[:width]


def _explode(*args: object) -> PhpArray:
    _arity("explode", args, 2)
    delim = to_str(args[0])
    if delim == "":
        raise WeblangError("explode() with empty delimiter")
    return PhpArray.from_list(list(to_str(args[1]).split(delim)))


def _implode(*args: object) -> str:
    _arity("implode", args, 2)
    glue = to_str(args[0])
    array = _need_array("implode", args[1])
    return glue.join(to_str(v) for v in array.values())


def _sprintf(*args: object) -> str:
    _arity("sprintf", args, 1, 64)
    fmt = to_str(args[0])
    out: list[str] = []
    arg_index = 1
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        spec = ""
        while j < len(fmt) and fmt[j] in "0123456789.+-":
            spec += fmt[j]
            j += 1
        if j >= len(fmt):
            raise WeblangError("sprintf(): dangling %")
        conv = fmt[j]
        if conv == "%":
            out.append("%")
            i = j + 1
            continue
        if arg_index >= len(args):
            raise WeblangError("sprintf(): not enough arguments")
        value = args[arg_index]
        arg_index += 1
        if conv == "d":
            out.append(("%" + spec + "d") % to_int(value))
        elif conv == "f":
            out.append(("%" + spec + "f") % to_float(value))
        elif conv == "s":
            out.append(("%" + spec + "s") % to_str(value))
        elif conv == "x":
            out.append(("%" + spec + "x") % to_int(value))
        else:
            raise WeblangError(f"sprintf(): unsupported conversion %{conv}")
        i = j + 1
    return "".join(out)


def _htmlspecialchars(*args: object) -> str:
    _arity("htmlspecialchars", args, 1)
    return (
        to_str(args[0])
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&#039;")
    )


def _md5(*args: object) -> str:
    _arity("md5", args, 1)
    return hashlib.md5(to_str(args[0]).encode()).hexdigest()


def _number_format(*args: object) -> str:
    _arity("number_format", args, 1, 2)
    # Negative decimals count as none, as in PHP up to 8.2.
    decimals = max(0, to_int(args[1])) if len(args) == 2 else 0
    value = to_float(args[0])
    try:
        return f"{value:,.{decimals}f}"
    except ValueError as exc:  # a precision the formatter refuses
        raise WeblangError(f"number_format(): {exc}") from None


# -- arrays ------------------------------------------------------------------


def _count(*args: object) -> int:
    _arity("count", args, 1)
    return len(_need_array("count", args[0]))


def _array_keys(*args: object) -> PhpArray:
    _arity("array_keys", args, 1)
    return PhpArray.from_list(list(_need_array("array_keys", args[0]).keys()))


def _array_values(*args: object) -> PhpArray:
    _arity("array_values", args, 1)
    return PhpArray.from_list(_need_array("array_values", args[0]).values())


def _array_key_exists(*args: object) -> bool:
    _arity("array_key_exists", args, 2)
    return _need_array("array_key_exists", args[1]).has(args[0])


def _in_array(*args: object) -> bool:
    _arity("in_array", args, 2)
    needle = args[0]
    return any(
        loose_eq(needle, v) for v in _need_array("in_array", args[1]).values()
    )


def _array_push(*args: object) -> int:
    _arity("array_push", args, 2, 64)
    array = _need_array("array_push", args[0])
    for value in args[1:]:
        array.append(value)
    return len(array)


def _array_merge(*args: object) -> PhpArray:
    _arity("array_merge", args, 1, 64)
    out = PhpArray()
    for arg in args:
        array = _need_array("array_merge", arg)
        for key, value in array.items():
            value = _stored(value)
            if isinstance(key, int):
                out.append(value)
            else:
                out.set(key, value)
    return out


def _array_slice(*args: object) -> PhpArray:
    _arity("array_slice", args, 2, 3)
    array = _need_array("array_slice", args[0])
    offset = to_int(args[1])
    values = array.values()
    if len(args) == 3:
        length = to_int(args[2])
        sliced = values[offset : offset + length]
    else:
        sliced = values[offset:]
    return PhpArray.from_list(sliced)


def _array_reverse(*args: object) -> PhpArray:
    _arity("array_reverse", args, 1)
    return PhpArray.from_list(
        list(reversed(_need_array("array_reverse", args[0]).values()))
    )


def _sort_key(value: object) -> tuple[int, object]:
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    raise WeblangError("cannot sort arrays of arrays")


def _sort(*args: object) -> PhpArray:
    _arity("sort", args, 1)
    values = _need_array("sort", args[0]).values()
    return PhpArray.from_list(sorted(values, key=_sort_key))


def _rsort(*args: object) -> PhpArray:
    _arity("rsort", args, 1)
    values = _need_array("rsort", args[0]).values()
    return PhpArray.from_list(sorted(values, key=_sort_key, reverse=True))


def _range(*args: object) -> PhpArray:
    _arity("range", args, 2)
    low = to_int(args[0])
    high = to_int(args[1])
    step = 1 if high >= low else -1
    return PhpArray.from_list(list(range(low, high + step, step)))


# -- math / misc --------------------------------------------------------------


def _max(*args: object) -> object:
    _arity("max", args, 1, 64)
    values = (
        _need_array("max", args[0]).values() if len(args) == 1 else list(args)
    )
    if not values:
        raise WeblangError("max() of empty array")
    return _stored(max(values, key=_sort_key))


def _min(*args: object) -> object:
    _arity("min", args, 1, 64)
    values = (
        _need_array("min", args[0]).values() if len(args) == 1 else list(args)
    )
    if not values:
        raise WeblangError("min() of empty array")
    return _stored(min(values, key=_sort_key))


def _abs(*args: object) -> object:
    _arity("abs", args, 1)
    value = args[0]
    if isinstance(value, float):
        return abs(value)
    return abs(to_int(value))


# floor() / ceil() / round() of INF, -INF or NAN is that float, as in
# PHP: no int holds it.


def _floor(*args: object) -> object:
    _arity("floor", args, 1)
    value = to_float(args[0])
    return int(math.floor(value)) if math.isfinite(value) else value


def _ceil(*args: object) -> object:
    _arity("ceil", args, 1)
    value = to_float(args[0])
    return int(math.ceil(value)) if math.isfinite(value) else value


def _round(*args: object) -> object:
    _arity("round", args, 1, 2)
    decimals = to_int(args[1]) if len(args) == 2 else 0
    value = round(to_float(args[0]) + 0.0, decimals)
    return int(value) if decimals <= 0 and math.isfinite(value) else value


def _intval(*args: object) -> int:
    _arity("intval", args, 1)
    return to_int(args[0])


def _floatval(*args: object) -> float:
    _arity("floatval", args, 1)
    return to_float(args[0])


def _strval(*args: object) -> str:
    _arity("strval", args, 1)
    return to_str(args[0])


def _boolval(*args: object) -> bool:
    _arity("boolval", args, 1)
    return truthy(args[0])


def _is_null(*args: object) -> bool:
    _arity("is_null", args, 1)
    return args[0] is None


def _is_array(*args: object) -> bool:
    _arity("is_array", args, 1)
    return isinstance(args[0], PhpArray)


def _is_numeric(*args: object) -> bool:
    _arity("is_numeric", args, 1)
    value = args[0]
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        stripped = value.strip()
        try:
            float(stripped)
            return True
        except ValueError:
            return False
    return False


def _empty(*args: object) -> bool:
    _arity("empty", args, 1)
    return not truthy(args[0])


def _sql_quote(*args: object) -> str:
    """Escape and single-quote a value for inclusion in SQL text.

    This is the apps' injection-safe interpolation helper (the analog of
    ``mysqli_real_escape_string`` plus quoting).
    """
    _arity("sql_quote", args, 1)
    value = args[0]
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, float)):
        return to_str(value)
    escaped = to_str(value).replace("'", "''")
    return f"'{escaped}'"


PURE_BUILTINS: dict[str, Callable[..., object]] = {
    "strlen": _strlen,
    "substr": _substr,
    "strpos": _strpos,
    "str_replace": _str_replace,
    "strtolower": _strtolower,
    "strtoupper": _strtoupper,
    "ucfirst": _ucfirst,
    "trim": _trim,
    "str_repeat": _str_repeat,
    "str_pad": _str_pad,
    "explode": _explode,
    "implode": _implode,
    "sprintf": _sprintf,
    "htmlspecialchars": _htmlspecialchars,
    "md5": _md5,
    "number_format": _number_format,
    "count": _count,
    "array_keys": _array_keys,
    "array_values": _array_values,
    "array_key_exists": _array_key_exists,
    "in_array": _in_array,
    "array_push": _array_push,
    "array_merge": _array_merge,
    "array_slice": _array_slice,
    "array_reverse": _array_reverse,
    "sort": _sort,
    "rsort": _rsort,
    "range": _range,
    "max": _max,
    "min": _min,
    "abs": _abs,
    "floor": _floor,
    "ceil": _ceil,
    "round": _round,
    "intval": _intval,
    "floatval": _floatval,
    "strval": _strval,
    "boolval": _boolval,
    "is_null": _is_null,
    "is_array": _is_array,
    "is_numeric": _is_numeric,
    "empty": _empty,
    "sql_quote": _sql_quote,
}


#: name -> effect set, for every builtin the runtime can dispatch to.
#: Consumed by :mod:`repro.lang.analysis` and, through it, by the
#: compiling backend's purity decisions.
BUILTIN_EFFECTS: dict[str, frozenset] = {}
for _name in PURE_BUILTINS:
    BUILTIN_EFFECTS[_name] = EFFECTS_NONE
for _name in REQUEST_INPUT_BUILTINS:
    BUILTIN_EFFECTS[_name] = EFFECTS_NONE
for _name in NONDET_BUILTINS:
    BUILTIN_EFFECTS[_name] = frozenset({EFFECT_NONDET})
for _name in STATE_BUILTINS:
    BUILTIN_EFFECTS[_name] = _STATE_EFFECTS[_name]
for _name in EXTERNAL_BUILTINS:
    BUILTIN_EFFECTS[_name] = frozenset({EFFECT_EXTERNAL})
del _name
