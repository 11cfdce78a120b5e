"""Generated regions (:mod:`repro.lang.regions`) against the oracle.

A body of the compiled engine is one generated function whose
expressions run as Python behind type guards, falling back to their
general form.  These tests drive the guard both ways: straight-line
blocks and counter loops in which a variable turns into a float, a
numeric string, null, a bool, an array or a multivalue partway through;
every kind of expression with its guard holding and failing; and they
pin what a serve calls and how much source an app makes.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import (
    build_minicart,
    build_minicrp,
    build_miniforum,
    build_miniwiki,
)
from repro.common.errors import MultivalueFallback, WeblangError
from repro.lang import compile as compile_module
from repro.lang import interp, regions, simd
from repro.lang.analysis import branches, nodes
from repro.lang.ast import (
    Assign,
    Foreach,
    IndexAssign,
    Lit,
    Node,
    Var,
)
from repro.lang.compile import (
    CompInterpreter,
    compile_program,
    compiled_for,
)
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.sql.engine import StmtResult
from repro.trace.events import Request
from repro.multivalue.multivalue import MultiValue
from tests.lang.driver import (
    GROUP_ERRORS,
    Canned,
    alone,
    drive,
    finish,
    stacked,
)

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
    """``program`` compiled with no expression in line: every expression
    runs its general form (where closures once ran)."""
    with mock.patch.object(regions._Region, "_value", lambda *_: None):
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


def test_a_long_operator_chain_compiles_and_runs_alike():
    """Python's parser refuses 200 nested parentheses: a chain of 300
    operators must still compile (its deep part runs in its general
    form)."""
    chain = " + ".join(["$a"] * 300)
    program = parse_program(f"$a = 1; $x = {chain}; $y = 'y'; "
                            f"$y = {' . '.join(['$y'] * 250)}; "
                            "echo $x, ' ', strlen($y);")
    request = Request("r", "chain.php")
    expected = alone(Interpreter(record_flow=True), program, request)
    assert expected[0] == "300 250"
    assert alone(CompInterpreter(record_flow=True), program,
                 request) == expected


def _profiled_calls(program, n: int, script: str = "compute.php"
                    ) -> tuple[list, str]:
    """The code of each Python frame of one compiled run of ``script``
    with ``n`` as its ``n`` (``C`` for a call of a built-in such as
    ``dict.get``), and the body."""
    codes: list = []

    def profile(frame, event, _arg):
        if event == "call":
            codes.append(frame.f_code)
        elif event == "c_call":
            codes.append("C")

    run = CompInterpreter().run(program,
                                Request("r", script, get={"n": str(n)}))
    sys.setprofile(profile)
    try:
        next(run)
    except StopIteration as stop:
        (body,) = stop.value.bodies
    finally:
        sys.setprofile(None)
    return codes, body


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
    # The script and its loop.
    assert [getattr(code, "co_filename", code)
            for code in short].count("<weblang region>") == 1
    (loop,) = [source for source in sources if "while True:" in source]
    assert "env.get" not in loop[loop.index("while True:"):]


def test_a_function_that_says_global_runs_in_line():
    """A function that says ``global`` keeps its variables in Python
    locals like any other: its int ``+`` / ``<`` and its ``.`` run in
    line — 40 more trips, no more calls, and no ``simd._binop`` or
    ``regions._load`` frame — and the global it writes is the oracle's."""
    program = parse_program(
        "function f($n) { global $g; $i = 0; $s = ''; while ($i < $n) "
        "{ $i = $i + 1; $s = $s . 'x'; } $g = $s . $i; return $i; } "
        "echo f(intval(param('n'))), '|', $g;")
    short, _ = _profiled_calls(program, 40, "global.php")
    long, body = _profiled_calls(program, 80, "global.php")
    assert body == alone(Interpreter(), program, Request(
        "r", "global.php", get={"n": "80"}))[0] == "80|" + "x" * 80 + "80"
    assert len(long) == len(short)
    assert simd._binop.__code__ not in long
    assert regions._load.__code__ not in long


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
while ($p2 < 3) { $p0 = $p0 . 'C2'; $p1 .= $p0; $p5 = $p1 . $p0;
                  $p6 = $p2 * 7 + $p2; $p2 += 1; }
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
    # The script up to its loop is one function; the loop's source runs
    # past ``_SIZE`` characters, so the rest of the script is another.
    assert len(sources) == 2 and "while True:" in sources[0]
    assert len(sources[0]) > regions._SIZE
    for source in sources:
        for text in HOSTILE:
            assert text not in source


#: What every hazard program declares at top level: ``stop`` breaks,
#: and ``skip`` continues, the loop that calls it; ``peek`` writes the
#: global ``$g``, has ``bump`` (which falls off its end) add to ``$gn``,
#: and reads ``$h`` and ``$gn``.
SIGNALLERS = ("function stop($v) { if ($v == 2) { break; } return $v; } "
              "function skip($v) { if ($v % 2) { continue; } } "
              "function bump() { global $gn; $gn += 1; } "
              "function peek() { global $g, $h, $gn; $g .= '^'; bump(); "
              "return $h . $gn; } ")

#: ``if``s nested deeper than a generated function indents one.
DEEP = regions._INDENT

#: The hazards of a generated ``foreach`` / ``if`` / index assignment:
#: name -> program body.  ``$m`` is a multivalue of arrays in a group
#: (one class per request), ``$q`` the request's own number.
HAZARDS = {
    "value_array_mutated": "$a = [[1], [2, 3]]; foreach ($a as $v) "
                           "{ $v[] = 5; echo count($v); } "
                           "echo '|', count($a[0]), count($a[1]);",
    "subject_reassigned": "$a = [1, 2, 3]; foreach ($a as $k => $v) "
                          "{ $a = ['r' => $v]; $a[] = $k; echo $v; } "
                          "echo '|', implode(',', array_keys($a));",
    "break_from_a_call": "foreach ([1, 2, 3] as $v) { echo stop($v); } "
                         "echo '|'; $i = 0; while ($i < 4) { $i += 1; "
                         "echo stop($i); }",
    "continue_from_a_call": "foreach ([1, 2, 3, 4] as $k => $v) "
                            "{ skip($v); echo $k; }",
    # The loop a call breaks is not generated (it yields, or is drained):
    # what the region wrote before the call must be in the frame.
    "break_past_unwritten_locals": "$i = 0; while ($i < 4) { $i += 1; "
                                   "$last = $i; echo stop($i); "
                                   "kv_set('k', $i); } echo '|', $last;",
    # An index assignment down a longer path writes the frame (``root``
    # makes ``$a`` an array), then a call in it breaks the generated
    # loop around it.
    "break_from_a_drained_statement": "$i = 0; while ($i < 3) { $i += 1; "
                                      "$a = null; $a['x']['y'] = stop($i); "
                                      "echo count($a); } "
                                      "echo '|', count($a), $i;",
    "break_from_deep_ifs": "$i = 0; while ($i < 3) { $i += 1; $n = 0; "
                           + "if ($i > 0) { " * DEEP
                           + "$n = $i; echo stop($i); " + "} " * DEEP
                           + "} echo '|', $n, $i;",
    "multivalue_subject": "$m = explode(',', param('l')); "
                          "foreach ($m as $k => $v) { echo $k, '=', $v, ';'; }"
                          " echo '|', count($m);",
    "variables_after_the_loop": "foreach (['a' => 1, 'b' => [2]] as $k => $v)"
                                " { $last = $k; } echo $k, count($v), $last; "
                                "foreach ([] as $j => $w) { } "
                                "echo is_null($j) ? 'N' : $j;",
    "empty_array": "$n = 0; foreach ([] as $v) { $n += 1; echo 'x'; } "
                   "echo 'done', $n;",
    "scalar_subject": "$s = 'abc'; echo 'a'; foreach ($s as $v) { echo $v; }",
    "null_subject": "echo 'a'; foreach ($nothing as $v) { echo $v; } "
                    "echo 'b';",
    "if_arm_raises": "$q = intval(param('q')); if ($q > 2) { echo 'a'; "
                     "$x = $q % 0; echo 'b'; } elseif ($q > 0) { echo 'c'; "
                     "} else { echo 'd'; } echo 'e';",
    "append_to_a_missing_variable": "$b[] = 1; $b[] = 'two'; "
                                    "$c['k'] = $b; echo count($b), "
                                    "implode(',', $c['k']);",
    # A variable never set is null, read in line and in a general form.
    "read_before_assignment": "$w = $u; echo is_null($w) ? 'N' : 'S', "
                              "$u . 'x', $u + 1, !$u ? 'T' : 'F', "
                              "strlen($u); $u = 3; echo $u;",
    "compound_on_an_unset_variable": "$s .= 'a'; $n += 2; $m *= 3; "
                                     "echo $s, $n, $m; $t .= $n; echo $t;",
    "zero_trip_foreach_binding_read_after": "$v = 'kept'; foreach ([] as $k "
                                            "=> $v) { $v = 'no'; } echo $v, "
                                            "is_null($k) ? 'N' : $k; "
                                            "foreach ([] as $w) { } "
                                            "echo is_null($w) ? 'N' : 'S';",
    # Globals no one set, declared (in a function), read, compound-
    # assigned, seen and changed by a call, and read again.
    "global_of_a_never_set_global": "global $g, $h, $gn; echo is_null($g) ? "
                                    "'N' : $g, is_null($gn) ? 'N' : $gn; "
                                    "$gn += 2; $h .= 'x'; $g .= 'y'; "
                                    "echo '|', peek(), '|', $g, $gn; "
                                    "$h .= $g; $gn *= 2; "
                                    "echo '|', peek(), $gn, $g; $i = 0; "
                                    "while ($i < 2) { $i += 1; $h .= $i; "
                                    "echo '|', peek(); } echo '|', $h, $gn;",
    # ``global`` in one arm only: after the merge ``$g`` is the global
    # for some requests and the frame's own for the others.
    "global_in_one_if_arm": "$g = 'local'; $h = 'h'; "
                            "if (intval(param('q')) > 0) { global $g; } "
                            "$g .= '+'; echo $g, '|', peek(), '|', $g; "
                            "$g .= '!'; echo $g;",
}

#: Three requests that differ in ``q`` and in ``l``, a list of two.
HAZARD_INPUTS = [{"q": "0", "l": "a,b"}, {"q": "1", "l": "c,d"},
                 {"q": "3", "l": "e,f"}]


def _program(name: str, scope: str = "top"):
    """Hazard (or :data:`IMPURE` shape) ``name`` at top level, or as the
    body of a function (one with a ``global`` declaration where
    ``scope`` is ``global``)."""
    body = HAZARDS[name] if name in HAZARDS else IMPURE[name][0]
    if scope != "top":
        declare = "global $unused; " if scope == "global" else ""
        body = f"function f() {{ {declare}{body} }} f();"
    return parse_program(SIGNALLERS + body)


def _answered(run, size: int = 1):
    """The output of a run whose every intent is answered
    (:class:`Canned`), or the exception that ended it."""
    output, _, error = drive(run, [Canned() for _ in range(size)],
                             GROUP_ERRORS)
    return output if error is None else error


def _alone(engine, program, request):
    """:func:`alone`, with every intent answered."""
    output = _answered(engine.run(program, request))
    if isinstance(output, WeblangError):
        return f"{type(output).__name__}: {output}"
    (body,) = output.bodies
    return body, output.steps, output.flow_tag


@pytest.mark.parametrize("scope", ["top", "function", "global"])
@pytest.mark.parametrize("name", sorted(HAZARDS))
def test_a_hazard_agrees_with_the_oracle(name, scope):
    """Each hazard, request by request, equals the oracle (body,
    ``steps``, flow tag, error); as a group of three it is each slot's
    oracle run, or does not complete where they part or fail, and books
    the multivalent steps the closures alone would."""
    program = _program(name, scope)
    requests = [Request(f"r{slot}", "hazard.php", get=dict(get))
                for slot, get in enumerate(HAZARD_INPUTS)]
    oracle = [_alone(Interpreter(record_flow=True), program, request)
              for request in requests]
    for request, expected in zip(requests, oracle):
        assert _alone(CompInterpreter(record_flow=True), program,
                      request) == expected
    group, closures = (_answered(compiled.run_group(
        requests, record_flow=True), len(requests)) for compiled in (
        compile_program(program), _closures_only(program)))
    if isinstance(group, Exception):
        assert type(closures) is type(group)
        assert any(isinstance(ref, str) for ref in oracle) \
            or len({ref[2] for ref in oracle}) > 1 \
            or isinstance(group, MultivalueFallback), (name, group)
        return
    assert group.bodies == [body for body, _, _ in oracle]
    assert {(group.steps, group.flow_tag)} == {
        (steps, tag) for _, steps, tag in oracle}
    assert (group.multi_steps, group.multi_slots, group.multi_classes) == (
        closures.multi_steps, closures.multi_slots, closures.multi_classes)


def test_the_hazards_reach_the_paths_they_are_for():
    """The table is not vacuous: the multivalue subject goes through
    ``_foreach_items`` as one of a group's three classes, the scalar and
    null subjects fail as the oracle does, the missing variable is made
    an array, and the statements a signal leaves run on their closures."""
    outputs = {name: _alone(CompInterpreter(record_flow=True),
                            _program(name), Request(
                                "r", "hazard.php",
                                get=dict(HAZARD_INPUTS[2])))
               for name in HAZARDS}
    assert outputs["scalar_subject"] == "WeblangError: foreach over a " \
                                        "non-array"
    assert outputs["null_subject"] == outputs["scalar_subject"]
    assert outputs["append_to_a_missing_variable"][0] == "21,two"
    assert outputs["value_array_mutated"][0] == "23|12"
    assert outputs["break_from_a_call"][0] == "1|1"
    assert outputs["continue_from_a_call"][0] == "13"
    assert outputs["break_past_unwritten_locals"][0] == "1|2"
    assert outputs["break_from_a_drained_statement"][0] == "1|12"
    assert outputs["break_from_deep_ifs"][0] == "1|22"
    drained, made = [], []
    real_drained, real_region = regions._Region.drained, regions.region

    def spy_drained(region, pad, stmt):
        drained.append(stmt)
        return real_drained(region, pad, stmt)

    def spy_region(comp, stmts, *args, **kwargs):
        made.append(stmts)
        return real_region(comp, stmts, *args, **kwargs)

    with mock.patch.object(regions._Region, "drained", spy_drained), \
            mock.patch.object(regions, "region", spy_region):
        for name in ("break_from_a_drained_statement", "break_from_deep_ifs"):
            compile_program(_program(name, "function"))
    # The index assignment is generated in its loop; the ``if`` nested
    # past what one function indents is a generated function of its own.
    assert [type(stmt).__name__ for stmt in drained] == ["If"]
    assert [len(stmts) == 1 and stmts[0] is drained[0]
            for stmts in made].count(True) == 1
    assert not hasattr(compile_module._Compiler, "_compile_stmt")
    assert outputs["variables_after_the_loop"][0] == "b1bN"
    seen = []
    real = simd._foreach_items

    def spy(subject, state, where):
        seen.append(type(subject))
        return real(subject, state, where)

    program = parse_program(HAZARDS["multivalue_subject"])
    requests = [Request(f"r{slot}", "hazard.php", get=dict(get))
                for slot, get in enumerate(HAZARD_INPUTS)]
    with mock.patch.dict(regions._HELPERS, {"_foreach_items": spy}):
        out = _group(compile_program(program), requests)
    assert seen == [MultiValue]
    assert out.bodies == ["0=a;1=b;|2", "0=c;1=d;|2", "0=e;1=f;|2"]


#: A SELECT's reply: two rows.
_ROWS = StmtResult(rows=[{"id": 4}, {"id": 5}])

#: Impure code in every shape the generator makes of it: name ->
#: (program body, a slot's state replies in order).  Each yields intents
#: — state operations, a non-deterministic ``rand`` — from generated
#: code, past what one generated function nests, down an index path,
#: and around a ``break`` that leaves a drained statement.
IMPURE = {
    "if_past_the_indent": (
        "$q = intval(param('q')); $v = 'v'; " + "if ($q >= 0) { " * (DEEP + 1)
        + "$v = kv_get('k' . $q); echo $v, rand(1, 6); " + "} " * (DEEP + 1)
        + "echo '|', $v, kv_get('z');", ["a", "b"]),
    "loop_past_the_loops": (
        "$t = 0; " + "".join(f"foreach ([{depth}] as $k{depth}) {{ "
                             for depth in range(regions._LOOPS))
        + "while ($t < 3) { $t += 1; kv_set('k' . $t, $k0); "
          "echo kv_get('k'), rand(1, 9); } "
        + "} " * regions._LOOPS + "echo '|', $t;",
        [None, 1, None, "x", None, 2.5]),
    "index_path_from_a_read": (
        "$k = param('q'); $a['n'][$k] = kv_get('a'); "
        "$a['n'][$k . 'x'] = rand(1, 9); $a['n'][] = kv_get('b'); "
        "echo count($a['n']), '|', implode(',', $a['n']);", ["r", 7]),
    "compound_from_a_query": (
        "$k = param('q'); $a = [$k => 'x']; "
        "$a[$k] .= count(db_query('SELECT id FROM t')); echo $a[$k]; "
        "$a[$k] .= db_query('SELECT id FROM t'); echo $a[$k];",
        [_ROWS, _ROWS]),
    "break_from_a_drained_call_in_an_impure_loop": (
        "$i = 0; $n = 0; while ($i < 4) { $i += 1; kv_set('k', $i); "
        + "if ($i > 0) { " * DEEP + "$n = $i; echo stop($i), rand(1, 3); "
        + "} " * DEEP + "} echo '|', $n, $i;", []),
    "break_in_a_drained_statement_in_an_impure_loop": (
        "$i = 0; foreach ([1, 2, 3] as $v) { $i = kv_get('i') + $v; "
        + "if ($v > 0) { " * DEEP + "if ($v == 2) { break; } echo $i; "
        + "} " * DEEP + "echo ';'; } echo '|', $i, $v;", [10, 20, 30]),
}


def _replied(run, replies, size: int = 1):
    """``(bodies, steps, flow tag)`` — or the error's text — and the
    intents, of a run whose every slot is answered from ``replies``."""
    output, intents, error = drive(
        run, [Canned(replies) for _ in range(size)], GROUP_ERRORS)
    if error is not None:
        return f"{type(error).__name__}: {error}", intents
    return (output.bodies, output.steps, output.flow_tag), intents


@pytest.mark.parametrize("scope", ["top", "function", "global"])
@pytest.mark.parametrize("name", sorted(IMPURE))
def test_an_impure_shape_agrees_with_the_oracle(name, scope):
    """Each impure shape, request by request, equals the oracle: body,
    ``steps``, flow tag, intent sequence and error.  As a group of three
    it is each slot's oracle run, its intents theirs side by side, or it
    does not complete where they part or fail."""
    oracle = _agrees_with_the_oracle(_program(name, scope), IMPURE[name][1],
                                     "impure.php", name)
    assert all(intents for _, intents in oracle), name


def _agrees_with_the_oracle(program, replies, script, name):
    """The checks of the test above, on three requests of ``script``
    answered from ``replies``; the oracle's runs."""
    requests = [Request(f"r{slot}", script, get=dict(get))
                for slot, get in enumerate(HAZARD_INPUTS)]
    oracle = [_replied(Interpreter(record_flow=True).run(program, request),
                       replies) for request in requests]
    for request, (expected, intents) in zip(requests, oracle):
        got, got_intents = _replied(
            CompInterpreter(record_flow=True).run(program, request), replies)
        assert got == expected
        assert repr(got_intents) == repr(intents)
    group, intents = _replied(compile_program(program).run_group(
        requests, record_flow=True), replies, len(requests))
    if isinstance(group, str):
        assert any(isinstance(ref, str) for ref, _ in oracle) \
            or len({ref[2] for ref, _ in oracle}) > 1 \
            or group.startswith(MultivalueFallback.__name__), (name, group)
        return oracle
    assert group[0] == [ref[0][0] for ref, _ in oracle]
    assert {group[1:]} == {ref[1:] for ref, _ in oracle}
    assert repr(intents) == repr([stacked(list(members)) for members in zip(
        *(slot_intents for _, slot_intents in oracle))])
    return oracle


def test_the_impure_shapes_reach_the_paths_they_are_for():
    """The table is not vacuous: a shape nested past what one function
    holds is drained into a generated function of its own, which is
    ``yield from``'d where it yields; the index paths are walked in
    generated code; and the breaks leave where they should."""
    sources: list[str] = []
    drained: dict[str, list[bool]] = {}
    factory, real_drained = regions._factory, regions._Region.drained

    def spy_drained(region, pad, stmt):
        lines = real_drained(region, pad, stmt)
        drained[name].append(any("yield from" in line for line in lines))
        return lines

    with mock.patch.object(regions, "_factory", lambda source: sources.append(
            source) or factory(source)), \
            mock.patch.object(regions._Region, "drained", spy_drained):
        for name in IMPURE:
            drained[name] = []
            compile_program(_program(name, "function"))
    assert drained == {
        "if_past_the_indent": [True], "loop_past_the_loops": [True],
        "index_path_from_a_read": [], "compound_from_a_query": [],
        "break_from_a_drained_call_in_an_impure_loop": [True],
        "break_in_a_drained_statement_in_an_impure_loop": [False]}
    assert any("_descend(" in source and "yield" in source
               for source in sources)
    assert not any("next(" in source for source in sources)
    outputs = {name: _replied(CompInterpreter(record_flow=True).run(
        _program(name, "top"), Request("r", "impure.php", get={"q": "1"})),
        IMPURE[name][1])[0] for name in IMPURE}
    assert outputs["index_path_from_a_read"][0] == ["3|r,7,7"]
    assert outputs["compound_from_a_query"][0] == ["x2x2Array"]
    assert outputs["loop_past_the_loops"][0] == ["17x72.57|3"]
    assert outputs["break_from_a_drained_call_in_an_impure_loop"][0] == \
        ["17|22"]
    assert outputs["break_in_a_drained_statement_in_an_impure_loop"][0] == \
        ["11;|222"]


def test_a_subject_that_is_no_array_fails_at_the_oracles_step():
    """``foreach`` over a str fails with the oracle's error, and with
    ``steps`` where the oracle's stood when it raised."""
    program = parse_program(HAZARDS["scalar_subject"])
    request = Request("r", "hazard.php")
    states = []
    for module, cls in ((interp, interp._RunState), (simd, simd._State)):
        real = cls.__init__

        def init(self, *args, _real=real, **kwargs):
            _real(self, *args, **kwargs)
            states.append(self)

        with mock.patch.object(cls, "__init__", init):
            engine = Interpreter() if module is interp else CompInterpreter()
            assert alone(engine, program, request) == \
                "WeblangError: foreach over a non-array"
    oracle, compiled = states
    assert compiled.steps == oracle.steps == 6


def _walked_afresh(tree, funcs) -> tuple:
    """What :func:`regions._walk` finds of ``tree`` (a node or a list of
    them), found by visiting its whole subtree."""
    found = nodes(tree)
    return (
        frozenset(item.name for item in found if type(item) is Var),
        frozenset(item.name for item in found if type(item) is Assign)
        | frozenset(var for item in found if type(item) is Foreach
                    for var in (item.key_var, item.val_var) if var),
        frozenset(item.name for item in found if type(item) is IndexAssign),
        any(branches(item, funcs) for item in found),
    )


class _OnceEach(dict):
    """A compiler's walk memo that fails on a second walk of a node."""

    def __setitem__(self, key, value):
        assert key not in self, f"{value[0]!r} walked twice"
        super().__setitem__(key, value)


def _walk_all(program, *dialect) -> int:
    """Compile ``program``, checking every walk; the nodes walked."""
    comp = compile_module._Compiler(program, *dialect)
    comp.walks = _OnceEach()
    comp.compile()
    for tree, found in comp.walks.values():
        assert found == _walked_afresh(tree, comp.funcs), tree
    return len(comp.walks)


@pytest.mark.parametrize("build", [build_miniwiki, build_miniforum,
                                   build_minicrp, build_minicart],
                         ids=["miniwiki", "miniforum", "minicrp",
                              "minicart"])
def test_each_subtree_is_walked_once_and_found_whole(build):
    """Compiling a bundled app walks each node (or statement list) once,
    and what the bottom-up walk finds of it is what a walk of its whole
    subtree finds."""
    app = build()
    walked = sum(_walk_all(app.script(name), app.db_name, app.kv_name,
                           app.session_cookie) for name in app.scripts)
    assert walked > 100


def test_a_pure_loop_nest_is_walked_once_and_found_whole():
    """The pure loops the bundled apps keep out of walks: a foreach
    nested past the loops one region holds is drained, so its walk
    binds its key and value; and a short-circuit, ``break`` /
    ``continue`` and a call of a user function inside loops."""
    nest = "".join(f"foreach ($m as $k{depth} => $v{depth}) {{ "
                   for depth in range(regions._LOOPS + 1))
    close = "}" * (regions._LOOPS + 1)
    program = parse_program(f"""
function twice($n) {{ return $n * 2; }}
$t = 0; $m = ['a' => 1, 'b' => 2];
{nest}
  if ($v0 > 1 && $k0 != 'a') {{ $t += twice($v1); continue; }}
  $i = 0;
  while (true) {{ $i += 1; if ($i > 3) {{ break; }} }}
  $m2[$k1] = $i;
{close}
echo $t;
""")
    assert _walk_all(program, "db:main", "kv:apc", "sess") > 20


#: Every kind of expression the engine once ran as a closure, ``$x``
#: its operand: name -> program body (after ``$x`` is set).  The helper
#: functions are declared at top level.
SHAPE_HELPERS = ("function twice($v) { return $v * 2; } "
                 "function stored($v) { kv_set('s', $v); "
                 "return kv_get('s') . $v; } ")
SHAPES = {
    "constant": "echo 1 + 2 * 3, -(4), !false, 'a' . 'b', $x;",
    "variable": "$y = $x; echo $y, $x;",
    "binop": "echo $x + 1, '|', $x . 'a', '|', $x < 3, '|', $x * $x;",
    "logic": "echo ($x > 1 && $x < 9) ? 'y' : 'n', ($x || 0) ? 'y' : 'n', "
             "$x && strlen('ab') == 2, '|', 0 || $x;",
    "unop": "echo !$x ? 'T' : 'F', -$x, !($x > 2);",
    "ternary": "echo $x > 2 ? $x * 2 : $x . 'z', $x ? 'a' : 'b';",
    "index": "$a = [1, 2, 3, 'k' => 'v']; echo $a[$x % 3], $a['k'], "
             "'abc'[$x % 2];",
    "array_literal": "$a = [$x, 'k' => $x + 1, [$x]]; echo count($a), "
                     "$a['k'], count($a[1]);",
    "builtin_call": "echo strlen(strval($x)), max($x, 2), "
                    "str_repeat('-', intval($x));",
    "request_input": "echo param('q', $x), intval(param('z', $x)) + 1, "
                     "cookie('c', 'none'), post_param('p', $x);",
    "pure_user_call": "echo twice($x) + 1, twice(twice($x)), "
                      "strlen(twice($x) . 'x');",
    "impure_user_call": "echo stored($x) . 'x', strlen(stored($x + 1));",
    "state_call": "kv_set('k' . $x, $x); echo strlen(kv_get('k' . $x)) "
                  ". 'x', reg_read('r');",
    "external_call": "send_email('a@b', 'subject ' . $x, $x); echo 'sent';",
    "nondet_call": "echo rand(1, 9) + $x, -rand(1, 3), !time();",
    "wrong_arity": "echo $x, strlen(param('q', 'a', $x)); kv_get($x, 1);",
}

#: What ``$x`` holds: a type every in-line guard takes, a multivalue in
#: a group (the request's own number), and a type the int guards refuse.
SHAPE_CASES = {"holds": "$x = 5;", "multivalue": "$x = intval(param('q'));",
               "other_type": "$x = 2.5;"}


@pytest.mark.parametrize("scope", ["top", "function", "global"])
@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_an_expression_shape_agrees_with_the_oracle(name, case, scope):
    """Each kind of expression, with its in-line guard holding, failing
    on a multivalue and failing on another type, request by request
    equals the oracle: body, ``steps``, flow tag, intent sequence and
    error.  As a group of three it is each slot's oracle run, its
    intents theirs side by side, or it does not complete where they
    part or fail."""
    body = SHAPE_CASES[case] + " " + SHAPES[name]
    if scope != "top":
        declare = "global $unused; " if scope == "global" else ""
        body = f"function f() {{ {declare}{body} }} f();"
    _agrees_with_the_oracle(parse_program(SHAPE_HELPERS + body),
                            ["v", 7, None, "w"], "shape.php", name)


#: The functions of ``lang/compile.py`` a serve may call: the engine's
#: entry points and an index assignment's ``root`` / ``step`` / ``finish``.
RUN_TIME = {"CompInterpreter.__init__", "CompInterpreter.run",
            "CompInterpreter._compiled", "compiled_for",
            "CompiledProgram.run_group",
            *(f"_Compiler._index_parts.<locals>.{name}"
              for name in ("root", "step", "finish"))}


@pytest.mark.parametrize("workload", ["wiki", "forum", "hotcrp", "cart"])
def test_a_recorded_serve_runs_no_compile_function_per_expression(
        workload):
    """A recorded serve of each bundled app, its scripts compiled first,
    calls into ``lang/compile.py`` only for the run's entry points and
    index-assignment walkers: every expression is generated source."""
    from repro.bench.harness import run_online_phase
    from repro.workloads import (
        cart_workload,
        forum_workload,
        hotcrp_workload,
        wiki_workload,
    )

    built = {"wiki": wiki_workload, "forum": forum_workload,
             "hotcrp": hotcrp_workload, "cart": cart_workload}[workload](
        scale=0.01)
    app = built.app
    for name in app.scripts:
        compiled_for(app.script(name), app.db_name, app.kv_name,
                     app.session_cookie)
    called: dict[str, int] = {}

    def profile(frame, event, _arg):
        if event == "call" \
                and frame.f_code.co_filename == compile_module.__file__:
            name = frame.f_code.co_qualname
            called[name] = called.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        run_online_phase(built, seed=1)
    finally:
        sys.setprofile(None)
    assert called["CompiledProgram.run_group"] >= len(built.requests)
    assert set(called) <= RUN_TIME, sorted(set(called) - RUN_TIME)


#: Each bundled app's distinct generated-source characters, as this
#: engine makes them: what compiling its scripts hands ``compile``.
SOURCE_CHARS = {"miniwiki": 91_013, "miniforum": 50_764,
                "minicrp": 66_876, "minicart": 90_916}


@pytest.mark.parametrize("build", [build_miniwiki, build_miniforum,
                                   build_minicrp, build_minicart],
                         ids=["miniwiki", "miniforum", "minicrp",
                              "minicart"])
def test_generated_source_stays_within_its_ceiling(build, monkeypatch):
    """Compiling an app's scripts makes at most 1.2x the distinct source
    it makes today: a change that bloats the generated code (and the
    cold compile with it) fails here, not only in a timed compile."""
    app = build()
    sources: set[str] = set()
    factory = regions._factory
    monkeypatch.setattr(regions, "_factory",
                        lambda source: sources.add(source) or factory(source))
    for name in app.scripts:
        compile_program(app.script(name), app.db_name, app.kv_name,
                        app.session_cookie)
    chars = sum(map(len, sources))
    assert chars <= 1.2 * SOURCE_CHARS[app.name], chars
    assert chars >= 0.5 * SOURCE_CHARS[app.name], chars  # it is counted


def test_a_deep_ternary_and_logic_chain_compiles_and_runs_alike():
    """A ternary chain and an ``&&`` / ``||`` chain 120 deep, with calls
    and an intent in their arms: their general forms indent past what
    one function holds, so the deep parts are drained into functions of
    their own — and still run as the oracle does."""
    depth = 120
    ternary = "".join(f"$a == {i} ? f({i}) . kv_get('k') : ("
                      for i in range(depth)) + "'end'" + ")" * depth
    logic = "".join(f"($b || (f({i}) && " for i in range(depth)) \
        + "true" + "))" * depth
    program = parse_program(
        f"function f($v) {{ return $v * 2; }} $a = intval(param('q')); "
        f"$b = false; $x = {ternary}; $y = {logic}; "
        "echo $x, '|', $y ? 'T' : 'F';")
    for q in ("0", "57", "119", "500"):
        request = Request("r", "deep.php", get={"q": q})
        expected = _replied(Interpreter(record_flow=True).run(
            program, request), ["v"])
        assert _replied(CompInterpreter(record_flow=True).run(
            program, request), ["v"]) == expected
        assert expected[0][0] != ["end|F"] or q == "500"
