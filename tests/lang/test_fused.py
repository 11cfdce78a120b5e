"""Fused expression shapes of the compiled engine against the oracle.

Four expression shapes run as one closure each (:mod:`repro.lang.compile`,
:func:`repro.lang.regions.call` / :func:`~repro.lang.regions.copy_read`):
a pure built-in call of one to three arguments, the copy-read of a
dict-frame variable, ``$v[<int / str constant>]`` and an array literal
(built once when it is constant, its keys normalised once when they
are).  A single-key index assignment walks and holds no path.  Each
must book what the closure tree it replaces booked — ``steps``,
multivalent steps, the flow digest — and fail as it failed.

Every case runs request by request against
:class:`~repro.lang.interp.Interpreter` (body, ``steps``, flow tag,
error), and as a group of three requests with differing inputs against
the same engine with the shapes taken apart (:func:`_unfused`), which
must agree on the bodies, ``steps``, ``multi_steps`` / ``multi_slots``
/ ``multi_classes``, the flow tag and the error.  Each case runs at top
level, in a function (a dict frame) and in a function that says
``global`` (an ``_Env``, where no variable is read in line).
"""

from __future__ import annotations

import sys
from unittest import mock

import pytest

from repro.common.errors import MultivalueFallback
from repro.lang import compile as compile_module
from repro.lang import regions, simd
from repro.lang.compile import CompInterpreter, compile_program, compiled_for
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.trace.events import Request
from tests.lang.driver import GROUP_ERRORS, Canned, alone, drive, finish

#: Three requests that differ: ``q`` (a number), ``l`` (a list for
#: ``explode``), ``s`` (a key).
INPUTS = [
    {"q": "0", "l": "a,b", "s": "1"},
    {"q": "3", "l": "x", "s": "01"},
    {"q": "7", "l": "1,2,3", "s": "k"},
]

#: name -> program body.  ``$m`` is a multivalue of arrays in a group
#: (``explode`` of the request's own list), ``$p`` a multivalue str.
CASES = {
    # Built-in calls: every arity, wrong arities, every argument kind.
    "call_arity_0": "echo 'a'; echo max();",
    "call_arity_4": "$x = 5; echo max(1, $x, 3, 2), sprintf('%s-%s-%s', "
                    "$x, 'b', 7);",
    "call_arity_1": "$s = 'hello'; echo strlen($s), strtoupper('x'), "
                    "ucfirst($s . 'x'), count([1, 2]);",
    "call_two_with_one": "$s = 'x'; echo str_repeat($s);",
    "call_two_with_three": "$s = 'x'; echo str_repeat($s, 2, 3);",
    "call_arg_kinds": "$s = 'abc'; $n = 2; $a = ['k' => 'v', 'n' => 1]; "
                      "echo substr($s, 1), substr($s, $n, 1), "
                      "str_replace('b', $s, $s . 'b'), "
                      "in_array('v', $a), array_key_exists('k', $a), "
                      "implode(',', array_keys($a));",
    "call_arg_order": "$i = 0; echo str_pad(strval($i + 1), "
                      "($i > 0 ? 4 : 3), 'x'), max($i, 1, $i + 2);",
    "call_copies": "$a = [1, 2]; $c = array_push($a, 3); "
                   "echo $c, count($a), implode(',', array_merge($a, $a));",
    "call_multivalue": "$p = param('q'); $m = explode(',', param('l')); "
                       "echo strlen($p), count($m), implode('+', $m), "
                       "max($p, 2), str_repeat('-', intval($p));",
    "call_multi_cells": "$a = [param('q'), 'x']; echo count($a), "
                        "implode(',', $a); $b = $a; echo in_array('x', $b);",
    "call_undefined": "$s = 'x'; echo nosuch($s);",
    # Copy-reads.
    "copy_read": "$a = [1, [2]]; $b = $a; $b[] = 3; $b[1][] = 4; "
                 "echo count($a), count($a[1]), count($b), count($b[1]); "
                 "$p = param('q'); $c = $p; echo $c;",
    "copy_read_multi_array": "$m = explode(',', param('l')); $n = $m; "
                             "$n[] = 'z'; echo count($m), count($n);",
    # Constant keys on every kind of base.
    "index_array": "$a = [1 => 'one', '01' => 'zero-one', '-0' => 'mz', "
                   "'k' => 'kay']; echo $a['1'], $a[1], $a['01'], "
                   "$a['-0'], $a['k'], $a[true], $a['nope'], $a[7];",
    "index_str": "$s = 'hello'; echo $s['1'], $s[1], $s['01'], $s['-0'], "
                 "$s[true], $s[9];",
    "index_null": "$n = null; echo 'a'; echo $n['1'];",
    "index_int": "$n = 5; echo 'a'; echo $n[1];",
    "index_multivalue": "$m = explode(',', param('l')); echo $m['1'], "
                        "$m[1], $m['01'], $m['-0'], $m[0], $m[true];",
    "index_multi_str": "$p = param('l'); echo $p['1'], $p[0], $p['01'];",
    "index_multi_cell": "$a = ['k' => param('q'), 'j' => 'x']; "
                        "echo $a['k'], $a['j']; $b = $a['k']; echo $b;",
    "index_copies": "$a = ['in' => [1, 2]]; $b = $a['in']; $b[] = 3; "
                    "echo count($a['in']), count($b);",
    # Array literals.
    "literal_in_loop": "$i = 0; while ($i < 3) { $a = [1, 2]; $a[] = $i; "
                       "echo implode(',', $a), ';'; $i += 1; }",
    "literal_at_depth": "$i = 0; while ($i < 3) { $a = ['x' => [], "
                        "'y' => ['z' => [1]]]; $a['x'][] = 1; "
                        "$a['y']['z'][] = $i; echo count($a['x']), "
                        "count($a['y']['z']), ';'; $i += 1; }",
    "literal_keys": "$a = ['a' => 1, 'a' => 2, 'b' => 3]; "
                    "$b = [5 => 'x', 'y', '7' => 'z', 'w', '01' => 'o', "
                    "-3 => 'n', 'v']; echo implode(',', array_keys($a)), "
                    "implode(',', $a), ';', implode(',', array_keys($b)), "
                    "implode(',', $b); $b[] = 'u'; "
                    "echo ';', implode(',', array_keys($b));",
    "literal_dynamic_values": "$i = 4; $s = 'x'; $a = ['i' => $i, "
                              "'s' => $s . 'y', 3 => [$i], 'p' => "
                              "param('q'), $s]; $a[] = 9; "
                              "echo implode(',', array_keys($a)), "
                              "$a['p'], count($a[3]);",
    "literal_dynamic_keys": "$k = param('s'); $a = ['1' => 'a', $k => 'b', "
                            "'01' => 'c', 'd']; echo implode(',', "
                            "array_keys($a)), implode(',', $a);",
    "literal_bool_key": "$a = [true => 'a', 'x', null => 'n', 1.5 => 'f']; "
                        "echo implode(',', array_keys($a)), implode(',', $a);",
    "literal_illegal_key": "echo 'start'; if (intval(param('q')) > 5) { "
                           "$a = [[1] => 2]; } echo 'end';",
    "literal_folded": "$a = [-1 => 2 * 3, 'a' . 'b' => !0, [1, 'k' => [2]]];"
                      " echo implode(',', array_keys($a)), $a[-1], $a['ab'],"
                      " count($a[0]), $a[0]['k'][0];",
    # Single-key index assignments.
    "assign_single_key": "$a = []; $a['k'] = 1; $a[] = 2; $a['k'] .= 'x'; "
                         "$a[param('q')] = 3; $b[] = 'new'; "
                         "echo implode(',', array_keys($a)), implode(',', $a),"
                         " count($b);",
    "assign_single_key_multi": "$m = explode(',', param('l')); $m[] = 'z';"
                               " $m['k'] = param('q'); echo implode('+', $m);",
    "assign_scalar_root": "$s = 'x'; echo 'a'; $s['k'] = 1;",
    "assign_append_compound": "$a = [1]; echo 'a'; $a[] .= 'x';",
    # ``.`` chains of the shapes above, and their error order.
    "concat_chain": "$a = 'x'; $n = 3; $f = 1.5; echo $a . '-' . $n . '-' . "
                    "$f . null . true . [1][0] . strtoupper($a);",
    "concat_chain_multi": "$p = param('q'); echo 'a' . $p . 'b' . $p . "
                          "strlen($p) . max($p, 2);",
    "concat_chain_array": "$a = [1]; echo 'x' . $a . 'y' . 'z';",
    "concat_chain_error_order": "$a = 'x'; echo $a . 'y' . $a[5] . "
                                "nosuch() . str_repeat('z');",
    "concat_constant_chain": "$a = ['a' . 'b' . 'c' => 1]; "
                             "echo implode(',', array_keys($a));",
}

SCOPES = ["top", "function", "global"]


def _source(body: str, scope: str) -> str:
    if scope == "top":
        return body
    declare = "global $unused; " if scope == "global" else ""
    return f"function f() {{ {declare}{body} }} f();"


def _group(compiled, requests):
    """A group run's counts and bodies, or the type of what ended it."""
    out = finish(compiled.run_group(requests, record_flow=True),
                 GROUP_ERRORS)
    if isinstance(out, GROUP_ERRORS):
        return type(out)
    return (out.bodies, out.steps, out.multi_steps, out.multi_slots,
            out.multi_classes, out.flow_tag)


def _tree_call(builtin, operands):
    """A built-in call as the closure tree ran it: the argument
    closures into a list, then ``_call_builtin``."""
    fns = [fn for fn, _, _ in operands]

    def run(env, state):
        state.steps += 1
        return simd._call_builtin(builtin, [fn(env, state) for fn in fns],
                                  state)

    return run


def _unfused(program):
    """``program`` compiled with the fused shapes taken apart: no
    variable read in line, no literal built ahead, no key normalised
    ahead, calls as closure trees."""
    with mock.patch.object(compile_module._Compiler, "_frame_var",
                           lambda *_: None), \
            mock.patch.object(compile_module, "_const_key",
                              lambda *_: None), \
            mock.patch.object(regions, "call", _tree_call):
        return compile_program(program)


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_shapes_agree_with_the_oracle_and_the_closure_tree(name,
                                                                 scope):
    program = parse_program(_source(CASES[name], scope))
    requests = [Request(f"r{slot}", "fused.php", get=dict(get))
                for slot, get in enumerate(INPUTS)]
    oracle = [alone(Interpreter(record_flow=True), program, request)
              for request in requests]
    for request, expected in zip(requests, oracle):
        assert alone(CompInterpreter(record_flow=True), program,
                     request) == expected
    group = _group(compile_program(program), requests)
    assert group == _group(_unfused(program), requests)
    if isinstance(group, tuple):
        assert group[0] == [ref[0] for ref in oracle]
        assert {group[1]} == {ref[1] for ref in oracle}
    else:
        assert any(isinstance(ref, str) for ref in oracle) \
            or len({ref[2] for ref in oracle}) > 1 \
            or group is MultivalueFallback, (name, group)


def test_a_literal_that_yields_normalises_its_constant_keys():
    """A literal whose value is a non-deterministic built-in runs on
    generator closures; its constant keys go in normalised too."""
    program = parse_program(
        "$a = ['1' => rand(1, 9), '01' => 'x', 5 => 'y', 'z']; "
        "echo implode(',', array_keys($a)), ';', implode(',', $a);")
    outputs = []
    for engine in (Interpreter(record_flow=True),
                   CompInterpreter(record_flow=True)):
        output, (intent,), _ = drive(
            engine.run(program, Request("r", "fused.php")), [Canned(rest=4)])
        assert intent.func == "rand"
        outputs.append((output.bodies, output.steps, output.flow_tag))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == ["1,01,5,6;4,x,y,z"]


def _built(program) -> list:
    """The arrays ``program``'s constant literals are built into when
    :func:`compiled_for` compiles it (it must not have yet)."""
    built = []
    real = compile_module._Compiler.compile

    def keep(self):
        compiled = real(self)
        built.extend(array for array, _ in self.literals.values())
        return compiled

    with mock.patch.object(compile_module._Compiler, "compile", keep):
        compiled_for(program)
    return built


def test_the_cases_take_the_fused_paths():
    """The table reaches the shapes it is for: calls of one to three
    arguments go to ``regions.call``, and constant literals are built
    ahead."""
    seen = {"call": 0, "built": 0}

    def counting(kind, real):
        def wrapper(*args):
            seen[kind] += 1
            return real(*args)
        return wrapper

    with mock.patch.object(regions, "call", counting("call", regions.call)):
        for body in CASES.values():
            seen["built"] += bool(_built(parse_program(body)))
    assert min(seen.values()) >= 3, seen


def test_a_constant_literal_is_built_once_and_never_written():
    """Every evaluation of a constant literal is a handle on the one
    array built at compile time; writes through a handle, at depth too,
    leave it as it was built."""
    program = parse_program(
        "$i = 0; while ($i < 3) { $a = ['x' => [1], 'y' => 2]; "
        "$a['x'][] = $i; $a['y'] = $i; $a[] = 'z'; $i += 1; "
        "echo count($a['x']), $a['y'], count($a), ';'; }")
    (outer,) = [array for array in _built(program) if "x" in array.data]
    request = Request("r", "fused.php")
    assert alone(CompInterpreter(), program, request)[0] == \
        "203;213;223;" == alone(Interpreter(), program, request)[0]
    assert [list(outer.data["x"].data.values()), outer.data["y"],
            len(outer)] == [[1], 2, 2]


def _frames(program, request) -> list[str]:
    """The engine's own Python frames (compile and simd closures, and
    generated functions) of one run, by file."""
    frames: list[str] = []
    engine = (compile_module.__file__, simd.__file__, "<weblang expression>",
              "<weblang region>")

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in engine:
            frames.append(frame.f_code.co_filename)

    run = CompInterpreter().run(program, request)
    sys.setprofile(profile)
    try:
        next(run)
    except StopIteration:
        pass
    finally:
        sys.setprofile(None)
    return frames


@pytest.mark.parametrize("expr", [
    "strlen($s)",              # the call, its argument read in line
    "$s",                      # the copy-read
    "$cfg['site']",            # the read, base and key in line
    "['a' => 1, 'b' => [2]]",  # a handle on the built array
])
def test_each_fused_shape_is_one_frame(expr):
    """A univalent fused shape makes exactly one Python frame of the
    engine's own: ``$x = <expr>`` makes as many as ``$x = $s + 1``, an
    operator fused with its operands (the statement's closure calls the
    expression's in both)."""
    source = ("function f() {{ $s = 'hello'; $cfg = ['site' => 'w']; "
              "$x = {}; }} f();")
    request = Request("r", "frames.php")
    shaped = _frames(parse_program(source.format(expr)), request)
    plain = _frames(parse_program(source.format("$s + 1")), request)
    assert len(shaped) == len(plain)
