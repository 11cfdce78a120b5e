"""The in-line forms of pure built-ins (``EXACT_CALLS``) against the
built-ins they stand for.

For every entry, each value of a grid reaches the call through a frame
variable (whose type the generated code tests per value), through an
array cell, through the same call nested, and as one slot of a
multivalue.  The compiled engine's body, steps, flow digest and error
text must be the oracle's, and the value (type included) and the error
text ``PURE_BUILTINS[name]``'s.
"""

from __future__ import annotations

import pytest

from repro.common.errors import WeblangError
from repro.lang.builtins import EXACT_CALLS, PURE_BUILTINS
from repro.lang.compile import CompInterpreter
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import PhpArray, loose_eq, to_str
from repro.trace.events import Request
from tests.lang.driver import GROUP_ERRORS, alone, drive

#: Operands: empty, non-ASCII, numeric-looking, the HTML specials,
#: padded, and one of every other kind of value.
GRID = ["", "ÄbÇ ßé", "1e1", "&<>\"'", "  Mixed & Case\t", 7, 2.5, None,
        True, [1, "a"]]

#: The other operands of a three-operand call, the grid value in turn
#: in each place.
_OTHERS = ("&", "+&", "a&b&c")


def _literal(value) -> str:
    """``value`` written as a weblang literal."""
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is str:
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if type(value) is list:
        return "[" + ", ".join(map(_literal, value)) + "]"
    return repr(value)


def _value(value):
    """``value`` as the engines hold it: a list is an array."""
    if type(value) is list:
        return PhpArray.from_list([_value(item) for item in value])
    return value


def _cases():
    for name, (operands, _, _) in sorted(EXACT_CALLS.items()):
        for value in GRID:
            if len(operands) == 1:
                yield name, (value,)
                continue
            for place in range(len(operands)):
                args = list(_OTHERS)
                args[place] = value
                yield name, tuple(args)


CASES = list(_cases())
IDS = [f"{name}{args!r}" for name, args in CASES]

#: Where the operands come from: frame variables, array cells, and the
#: same call (of one operand) around the call.
SHAPES = [(name, args, shape) for name, args in CASES
          for shape in ("var", "cell", "nested")
          if shape != "nested" or len(args) == 1]


def _expected(name: str, args: tuple, nested: bool = False) -> str:
    """What the program of :func:`_source` prints, from the built-in
    called directly; or its error's text."""
    try:
        result = PURE_BUILTINS[name](*map(_value, args))
        if nested:
            result = PURE_BUILTINS[name](result)
    except WeblangError as error:
        return f"WeblangError: {error}"
    return f"{to_str(result)}|{_literal(result)}"


def _source(name: str, args: tuple, shape: str) -> str:
    """A program calling ``name`` on ``args`` in ``shape`` and printing
    the result and, where it is of the expected type and value, the
    literal the test wrote for it."""
    names = [f"$v{index}" for index in range(len(args))]
    lines = [f"{var} = {_literal(arg)};" for var, arg in zip(names, args)]
    if shape == "cell":
        lines.append("$a = [" + ", ".join(
            f"'k{index}' => {var}" for index, var in enumerate(names)) + "];")
        names = [f"$a['k{index}']" for index in range(len(args))]
    call = f"{name}({', '.join(names)})"
    if shape == "nested":
        call = f"{name}({call})"
    lines.append(f"$r = {call};")
    expected = _expected(name, args, shape == "nested")
    if "|" in expected:
        literal = expected.split("|", 1)[1]
        lines.append(f"echo $r, '|', $r === {literal} ? {_literal(literal)} "
                     ": 'differs';")
    else:
        lines.append("echo $r;")
    return " ".join(lines)


def _request(rid: str = "r1", **get) -> Request:
    return Request(rid, "forms.php", get=get)


@pytest.mark.parametrize("name, args, shape", SHAPES,
                         ids=[f"{name}{args!r}-{shape}"
                              for name, args, shape in SHAPES])
def test_form_is_the_builtin(name, args, shape):
    program = parse_program(_source(name, args, shape))
    compiled = alone(CompInterpreter(), program, _request())
    oracle = alone(Interpreter(), program, _request())
    assert compiled == oracle
    got = compiled if type(compiled) is str else compiled[0]
    assert got == _expected(name, args, shape == "nested")


@pytest.mark.parametrize("name, args", CASES, ids=IDS)
def test_form_with_a_multivalue_operand(name, args):
    """Slot 0 reads ``'AbC'`` where the program says a grid value and
    slot 1 the grid value: the operand is a multivalue, and each slot's
    body, and the group's steps and flow digest, are the oracle's."""
    values = [_literal(arg) for arg in args]
    place = next(index for index, arg in enumerate(args)
                 if len(args) == 1 or arg not in _OTHERS)
    values[place] = f"param('q', {values[place]})"
    names = [f"$v{index}" for index in range(len(args))]
    source = " ".join([*(f"{var} = {value};"
                         for var, value in zip(names, values)),
                       f"echo {name}({', '.join(names)});"])
    program = parse_program(source)
    requests = [_request("r1", q="AbC"), _request("r2")]
    alones = [alone(Interpreter(), program, request) for request in requests]
    output, _, error = drive(
        CompInterpreter().run_group(program, requests), None, GROUP_ERRORS)
    if any(type(one) is str for one in alones):  # a slot's error
        assert isinstance(error, WeblangError)
        return
    assert error is None
    assert output.bodies == [one[0] for one in alones]
    assert output.steps == alones[1][1]
    assert output.flow_tag == alones[1][2]


# -- in_array ----------------------------------------------------------------

#: Haystack elements a string needle meets.
_ELEMENTS = ["10", "1e1", 10, True, None, [["10"], "x"]]


def _reference(needle, array: PhpArray) -> bool:
    """``in_array`` as it was: every element through ``loose_eq``."""
    return any(loose_eq(needle, value) for value in array.values())


@pytest.mark.parametrize("needle", ["10", "1e1", "", "x", "1", " 10"])
@pytest.mark.parametrize("elements", [[element] for element in _ELEMENTS]
                         + [_ELEMENTS, _ELEMENTS[::-1], []],
                         ids=repr)
def test_in_array_with_a_string_needle(needle, elements):
    array = PhpArray.from_list([_value(element) for element in elements])
    assert PURE_BUILTINS["in_array"](needle, array) \
        is _reference(needle, array)
