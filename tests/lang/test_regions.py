"""Generated regions (:mod:`repro.lang.regions`) against the oracle.

A pure block or ``while`` of the compiled engine is one generated
function whose exact-int / str assignments and conditions run as Python
expressions behind a type guard, falling back to the statement's
closure.  These tests drive the guard both ways: straight-line blocks
and counter loops in which a variable turns into a float, a numeric
string, null, a bool, an array or a multivalue partway through.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import MultivalueFallback, WeblangError
from repro.lang import regions
from repro.lang.ast import Lit, Node
from repro.lang.compile import (
    CompInterpreter,
    compile_program,
    compiled_for,
)
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.simd import _State
from repro.trace.events import Request
from tests.lang.driver import GROUP_ERRORS, alone, finish

sys.path.append(str(Path(__file__).resolve().parents[2]
                    / "benchmarks" / "e2e"))
import e2e_workloads  # noqa: E402

#: Every variable the generated programs use, dumped with its type at
#: the end: ``i`` int, ``s`` str, ``A3`` an array of 3, ``N`` null, ...
DUMPED = ("a", "b", "c", "i", "n", "s")


def _dump(var: str) -> str:
    value = f"${var}"
    return (f"echo '|{var}=', is_array({value}) ? 'A' . count({value}) : "
            f"(is_null({value}) ? 'N' : ({value} === true ? 'T' : "
            f"({value} === false ? 'F' : ({value} === intval({value}) ? "
            f"'i' . {value} : ({value} === strval({value}) ? 's' . {value}"
            f" : 'f' . {value})))));")


def _ints(depth: int) -> st.SearchStrategy[str]:
    """An int expression: mostly what runs in line, some of what does
    not (``/``, ``%`` by a variable, a negative constant)."""
    leaf = st.sampled_from(["$a", "$c", "$i", "$b", "0", "1", "7", "9973",
                            "-3"])
    if depth == 0:
        return leaf
    inner = _ints(depth - 1)
    return st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-"), inner),
        st.builds("({} * {})".format, inner, st.sampled_from(["3", "2"])),
        st.builds("({} {} {})".format, inner, st.sampled_from(["%", "/"]),
                  st.sampled_from(["7", "9973", "-4", "0", "2", "$c"])),
        leaf,
    )


_STRS = st.sampled_from(["''", "'x'", "'0'", "'7'"])

#: What a variable may turn into partway through.
_FLIPS = st.sampled_from([
    "${v} = ${v} + 0.5;",                     # float
    "${v} = strval(${v});", "${v} = '12';",   # numeric string
    "${v} = null;",
    "${v} = true;", "${v} = ${v} > 1;",       # bool
    "${v} = [${v}];",                         # array
    "${v} = ${v} + intval(param('q'));",      # multivalue in a group
    "${v} = ${v} . param('q');",
])

_STATEMENTS = st.one_of(
    st.builds("${} = {};".format, st.sampled_from("ac"), _ints(2)),
    st.builds("${} {}= {};".format, st.sampled_from("ac"),
              st.sampled_from("+-*"), _ints(1)),
    st.builds("${} /= {};".format, st.sampled_from("ac"),
              st.sampled_from(["2", "0"])),
    st.builds("$b = {} {} {};".format, _ints(1),
              st.sampled_from(["<", "<=", ">", ">=", "==", "!=", "===",
                               "!=="]), _ints(1)),
    st.builds("$s .= {};".format, _STRS),
    st.builds("$s = $s . {};".format, _STRS),
    st.builds("$s = {} . $s;".format, _STRS),
    st.builds(lambda flip, var: flip.replace("{v}", var), _FLIPS,
              st.sampled_from("abcs")),
)


@st.composite
def _programs(draw) -> str:
    """A straight-line block, a counter loop with a flip on some trip,
    another block and the dump — at top level, in a function (a dict
    frame too) or in a function that says ``global`` (an ``_Env``)."""
    block = st.lists(_STATEMENTS, max_size=5).map(" ".join)
    trips = draw(st.integers(0, 4))
    bound = draw(st.sampled_from([str(trips), "$n"]))
    flip = draw(st.one_of(
        st.just(""),
        st.builds("if ($i == {}) {{ {} }} ".format, st.integers(1, 3),
                  st.builds(lambda flip, var: flip.replace("{v}", var),
                            _FLIPS, st.sampled_from("abcs"))),
        st.sampled_from(["if ($i == 2) { $i = $i + 0.5; } ",
                         "if ($i == 1) { $i = strval($i); } ",
                         "if ($i == 2) { continue; } ",
                         "if ($i == 3) { break; } "]),
        # The loop-locals hazards: a closure writes a loop variable and
        # continues; ``break`` right after an in-line write; a call
        # that writes loop variables through ``global``; a nested loop;
        # an error partway through a trip, after an in-line write.
        st.sampled_from(["if ($i == 2) { $a = $a + 5; $i += 1; continue; } ",
                         "$a += 2; if ($i == 3) { break; } ",
                         "$a = $a * 3; break; ",
                         "g(); ",
                         "$b = 0; while ($b < $i) { $b += 1; $a += $b; } ",
                         "$a += 1; if ($i == 2) { $c = $a % 0; } "]),
    ))
    body = (f"$a = 1; $b = 0; $c = 2; $s = 'x'; $i = 0; $n = {trips}; "
            f"{draw(block)} "
            f"while ($i < {bound}) {{ $i += 1; {flip}{draw(block)} }} "
            f"{draw(block)} " + " ".join(_dump(var) for var in DUMPED))
    scope = draw(st.sampled_from(["top", "function", "global"]))
    # At top level ``g`` writes the loop's own variables.
    helper = "function g() { global $a, $i; $a += 3; $i = $i + 1; } "
    if scope == "top":
        return helper + body
    declare = "global $c; " if scope == "global" else ""
    return f"{helper}function f() {{ {declare}{body} }} f();"


def _group(compiled, requests):
    """A group run's output, or the exception that ended it."""
    return finish(compiled.run_group(requests, record_flow=True),
                  GROUP_ERRORS)


def _closures_only(program):
    """``program`` compiled with no statement in line: every statement
    of a region calls its closure, as before regions ran any."""
    with mock.patch.object(regions._Region, "_expr", lambda *_: None):
        return compile_program(program)


@settings(max_examples=300, deadline=None)
@given(source=_programs(),
       qs=st.lists(st.integers(0, 3), min_size=3, max_size=3))
# Shapes never to miss: ``%`` by a zero constant and by a variable that
# is zero (neither may run in line), a counter that turns into a float,
# a str that turns into an int under ``.=``, a multivalue counter.
@example(source="$a = 5; $a = $a % 0; echo $a;", qs=[0, 0, 0])
@example(source="$a = 5; $c = 0; $a = ($a + 1) % $c; echo $a;",
         qs=[0, 0, 0])
@example(source="$i = 0; while ($i < 3) { $i += 1; $i = $i + 0.5; } "
         "echo $i;", qs=[0, 0, 0])
@example(source="$s = 'x'; $i = 0; while ($i < 3) { $s .= 'y'; $s = $i; "
         "$i += 1; } echo $s;", qs=[0, 0, 0])
@example(source="$i = intval(param('q')); while ($i < 3) { $i += 1; } "
         "echo $i;", qs=[0, 1, 0])
# The loop-locals hazards, as above.
@example(source="$i = 0; $a = 0; while ($i < 6) { $i += 1; if ($i == 2) "
         "{ $i += 2; $a = $a + 100; continue; } $a += 1; } echo $i, ' ', $a;",
         qs=[0, 0, 0])
@example(source="$i = 0; $a = 1; while ($i < 6) { $i += 1; $a = $a * 3; "
         "if ($i == 3) { $a = $a + 1; break; } } echo $i, ' ', $a; "
         "while ($a < 1000) { $a = $a * 2; break; } echo ' ', $a;",
         qs=[0, 0, 0])
@example(source="function g() { global $i, $a; $i = $i + 2; $a = $a . 'g'; }"
         " $i = 0; $a = 'x'; while ($i < 7) { $i += 1; $a .= 'y'; g(); } "
         "echo $i, ' ', $a;", qs=[0, 0, 0])
@example(source="$i = 0; $a = 0; while ($i < 4) { $i += 1; $b = 0; "
         "while ($b < $i) { $b += 1; $a = $a + $b * $i; } } echo $a, $b;",
         qs=[0, 0, 0])
@example(source="$i = 0; $a = 0; while ($i < 5) { $i += 1; $a = $a + 1; "
         "if ($i == 3) { $a = $a % 0; } } echo $a;", qs=[0, 0, 0])
def test_regions_agree_with_the_oracle(source, qs):
    """Request by request, the engine and the oracle agree on the body
    (the dump says each variable's type and value), ``steps``, the flow
    digest and the error; a group of 3 is each slot's oracle run, or
    does not complete where they part or fail, and books the multivalent
    steps the closures alone would."""
    program = parse_program(source)
    requests = [Request(f"r{slot}", "regions.php", get={"q": str(q)})
                for slot, q in enumerate(qs)]
    oracle = [alone(Interpreter(record_flow=True), program, request)
              for request in requests]
    for request, expected in zip(requests, oracle):
        assert alone(CompInterpreter(record_flow=True), program,
                     request) == expected
    group = _group(compile_program(program), requests)
    closures = _group(_closures_only(program), requests)
    if isinstance(group, Exception):
        assert type(closures) is type(group)
        assert any(isinstance(ref, str) for ref in oracle) \
            or len({ref[2] for ref in oracle}) > 1 \
            or isinstance(group, MultivalueFallback), (source, group)
        return
    assert not isinstance(closures, Exception)
    assert group.bodies == [body for body, _, _ in oracle]
    assert {(group.steps, group.flow_tag)} == {
        (steps, tag) for _, steps, tag in oracle}
    assert (group.multi_steps, group.multi_slots, group.multi_classes) == (
        closures.multi_steps, closures.multi_slots, closures.multi_classes)


def test_an_error_leaves_the_frame_steps_and_flow_as_the_closures_do():
    """A ``WeblangError`` raised inside a call leaves a generated loop
    with the frame, ``steps`` and the flow digest exactly as the
    closures alone leave them: what ran in line before the call is in
    the frame, and nothing is written back after it."""
    program = parse_program(
        "$i = 0; $a = 5; $s = 'x'; while ($i < 9) { $i += 1; $a = $a * 2;"
        " $s .= 'y'; if ($i == 4) { $a = $a + 1; $b = $a % 0; } $a += 3; }")

    def crash(compiled):
        state = _State([Request("r", "error.php")], compiled._flow_seed,
                       True)
        with pytest.raises(WeblangError):
            compiled._body_fn(state.globals, state)
        return state.globals, state.steps, state.flow

    expected = crash(_closures_only(program))
    # Three whole trips (5 -> 13 -> 29 -> 61), then the fourth's in-line
    # doubling and the closure's + 1 before it fails.
    assert expected[0] == {"i": 4, "a": 61 * 2 + 1, "s": "xyyyy"}
    assert crash(compile_program(program)) == expected


def test_a_long_operator_chain_compiles_and_runs_alike():
    """Python's parser refuses 200 nested parentheses: a chain of 300
    operators must still compile (its deep part runs on closures)."""
    chain = " + ".join(["$a"] * 300)
    program = parse_program(f"$a = 1; $x = {chain}; $y = 'y'; "
                            f"$y = {' . '.join(['$y'] * 250)}; "
                            "echo $x, ' ', strlen($y);")
    request = Request("r", "chain.php")
    expected = alone(Interpreter(record_flow=True), program, request)
    assert expected[0] == "300 250"
    assert alone(CompInterpreter(record_flow=True), program,
                 request) == expected


def _profiled_calls(program, n: int) -> tuple[list[str], str]:
    """Where each Python frame of one compiled run of ``compute.php``
    came from (``C`` for a call of a built-in such as ``dict.get``), and
    the body."""
    files: list[str] = []

    def profile(frame, event, _arg):
        if event == "call":
            files.append(frame.f_code.co_filename)
        elif event == "c_call":
            files.append("C")

    run = CompInterpreter().run(program,
                                Request("r", "compute.php", get={"n": str(n)}))
    sys.setprofile(profile)
    try:
        next(run)
    except StopIteration as stop:
        (body,) = stop.value.bodies
    finally:
        sys.setprofile(None)
    return files, body


def test_the_benchmark_loop_is_one_generated_function(monkeypatch):
    """``compute_singleton``'s loop runs as one generated function whose
    trips make no call at all — no Python frame, no ``dict.get``: 40
    more trips, no more calls — and whose ``while`` reads no variable
    from the frame: they live in Python locals."""
    app = e2e_workloads.compute_workload(0.02, 1).app
    sources: list[str] = []
    factory = regions._factory
    monkeypatch.setattr(regions, "_factory",
                        lambda source: sources.append(source)
                        or factory(source))
    program = app.scripts["compute.php"]
    compiled_for(program)
    short, _ = _profiled_calls(program, 40)
    long, body = _profiled_calls(program, 80)
    assert body == alone(Interpreter(), program,
                         Request("r", "compute.php", get={"n": "80"}))[0]
    assert len(long) == len(short)
    assert short.count("<weblang region>") == 2  # the script, the loop
    (loop,) = [source for source in sources if "while True:" in source]
    assert "env.get" not in loop[loop.index("while True:"):]


#: Program text a generated source must never hold, as constants and as
#: variable names; plus names the generator itself uses.
HOSTILE = ["x'y", 'a"""b', "back\\slash", "new\nline",
           "__import__('os').system('x')", "{body}", "}\n    return run\n"]
COLLIDING = ["b0", "v0", "env"]


def _rename(node, names: dict[str, str], constants: dict[str, str]):
    """``node`` with variables and str constants replaced."""
    if isinstance(node, list):
        return [_rename(item, names, constants) for item in node]
    if isinstance(node, tuple):
        return tuple(_rename(item, names, constants) for item in node)
    if isinstance(node, dict):
        return {key: _rename(value, names, constants)
                for key, value in node.items()}
    if not isinstance(node, Node):
        return node
    changes = {field.name: _rename(getattr(node, field.name), names,
                                   constants)
               for field in dataclasses.fields(node)}
    if isinstance(node, Lit) and node.value in constants:
        changes["value"] = constants[node.value]
    elif changes.get("name") in names:  # a Var or an Assign's target
        changes["name"] = names[changes["name"]]
    return dataclasses.replace(node, **changes)


def test_hostile_names_and_constants_never_reach_the_source(monkeypatch):
    """Variables named and str constants holding quotes, newlines,
    ``\"\"\"``, a backslash or Python code run alike on both engines, and
    no generated source holds any of them."""
    template = parse_program("""
$p0 = 'C0'; $p1 = 'C1'; $p2 = 0;
while ($p2 < 3) { $p0 = $p0 . 'C2'; $p1 .= $p0; $p2 += 1; }
$p3 = 'C3' . $p1; $p4 = $p2 * 7 + 1; $p5 = 'C4'; $p6 = $p4 - 1;
echo $p0, '|', $p1, '|', $p3, '|', $p4, '|', $p5, '|', $p6;
""")
    names = {f"p{index}": name
             for index, name in enumerate(HOSTILE[:4] + COLLIDING)}
    constants = {f"C{index}": value for index, value in enumerate(HOSTILE)}
    program = _rename(template, names, constants)
    sources: list[str] = []
    factory = regions._factory
    monkeypatch.setattr(regions, "_factory",
                        lambda source: sources.append(source)
                        or factory(source))
    compiled = compiled_for(program)
    request = Request("r", "hostile.php")
    expected = alone(Interpreter(record_flow=True), program, request)
    assert isinstance(expected, tuple) and HOSTILE[4] in expected[0]
    assert alone(CompInterpreter(record_flow=True), program,
                 request) == expected
    assert _group(compiled, [request]).bodies == [expected[0]]
    assert len(sources) == 2  # the script and its loop
    for source in sources:
        for text in HOSTILE:
            assert text not in source
