"""The weblang purity pass: which functions and nodes may yield an intent.

The fixpoint over the call graph (propagation, mutual and pure
recursion), the runtimes' dispatch order (a user function shadows a pure
built-in, never an intent-yielding one), per-node purity in every
syntactic position an intent can hide in, and the compiler's check that
a compiled body agrees with the pass.
"""

from __future__ import annotations

import pytest

from repro.lang import compile as compile_module
from repro.lang.analysis import Purity, call_kind, impure_functions
from repro.lang.builtins import (
    EXTERNAL_BUILTINS,
    NONDET_BUILTINS,
    STATE_BUILTINS,
)
from repro.lang.parser import parse_program


def purity(src: str) -> tuple:
    program = parse_program(src)
    return program, Purity(program)


def program_pure(src: str) -> bool:
    program, facts = purity(src)
    return all(map(facts.pure, program.body))


def test_pure_program_has_no_effects():
    assert program_pure("$a = 1 + 2; echo strtoupper('hi'), $a;")


def test_request_inputs_are_effect_free():
    assert program_pure("echo param('q', ''), post_param('b'), "
                        "cookie('sess');")


def test_state_builtin_effects():
    calls = {"db_query": "'SELECT a FROM t'", "db_exec": "'DELETE FROM t'",
             "kv_get": "'k'", "kv_set": "'k', 1", "reg_read": "'r'",
             "reg_write": "'r', 1", "session_put": "1",
             "send_email": "'a', 'b', 'c'", "external_call": "'svc', 'q'"}
    for name in (*STATE_BUILTINS, *NONDET_BUILTINS, *EXTERNAL_BUILTINS):
        assert call_kind(name, {}) == "builtin"
        assert not program_pure(f"$x = {name}({calls.get(name, '')});"), name


def test_an_unknown_function_yields_no_intent():
    # The call raises at run time, before any intent.
    assert call_kind("frobnicate", {}) == "unknown"
    assert program_pure("frobnicate(1);")


def test_function_effects_propagate_through_call_graph():
    _, facts = purity(
        "function leaf() { return kv_get('k'); }"
        "function mid($x) { return leaf() . $x; }"
        "function top() { return mid('!'); }"
        "function alone() { return 1; }"
        "echo top();"
    )
    assert facts.impure == {"leaf", "mid", "top"}
    assert facts.function_pure("alone")


def test_mutual_recursion_reaches_fixpoint():
    program, facts = purity(
        "function ping($n) { if ($n > 0) { return pong($n - 1); }"
        "  return time(); }"
        "function pong($n) { return ping($n); }"
        "echo ping(3);"
    )
    assert impure_functions(program) == {"ping", "pong"}
    assert not facts.function_pure("pong")


def test_pure_recursion_stays_pure():
    program, facts = purity(
        "function fact($n) { if ($n <= 1) { return 1; }"
        "  return $n * fact($n - 1); }"
        "function even($n) { return $n == 0 ? true : odd($n - 1); }"
        "function odd($n) { return $n == 0 ? false : even($n - 1); }"
        "echo fact(5), even(4);"
    )
    assert impure_functions(program) == frozenset()
    assert facts.function_pure("fact")
    assert all(map(facts.pure, program.body))


def test_user_function_shadows_pure_builtin():
    program, facts = purity(
        "function strlen($s) { return kv_get($s); } echo strlen('k');")
    assert call_kind("strlen", program.functions) == "user"
    assert not facts.function_pure("strlen")
    assert not all(map(facts.pure, program.body))


def test_user_function_never_shadows_an_intent_builtin():
    src = "function time() { return 1; } echo time();"
    program, facts = purity(src)
    assert call_kind("time", program.functions) == "builtin"
    assert facts.function_pure("time")  # declared, never dispatched to
    assert not all(map(facts.pure, program.body))


def test_per_node_effects():
    program, facts = purity(
        "function get() { return kv_get('k'); }"
        "$a = 1; $b = kv_get('k'); $c = strlen(get()); "
        "if ($a) { echo 1; } else { $d = time(); }")
    pure_stmt, state_stmt, call_stmt, branch = program.body
    assert facts.pure(pure_stmt)
    assert not facts.pure(state_stmt)
    assert not facts.pure(call_stmt)
    assert not facts.pure(call_stmt.expr)  # strlen(get())
    assert not facts.pure(call_stmt.expr.args[0])  # get()
    assert not facts.pure(branch)
    assert facts.pure(branch.branches[0][0])  # $a
    assert facts.pure(branch.branches[0][1][0])  # echo 1
    assert not facts.pure(branch.else_body[0])  # $d = time()


def test_a_body_disagreeing_with_the_pass_is_an_error(monkeypatch):
    """The compiler binds callers to the pass's purity before it
    compiles a body; a body that disagrees is a compiler error, never a
    silent overwrite."""
    program = parse_program(
        "function f() { return kv_get('k'); } echo f();")
    monkeypatch.setattr(Purity, "function_pure", lambda self, name: True)
    with pytest.raises(AssertionError, match="f\\(\\)"):
        compile_module.compile_program(program)


#: Every place an expression can sit, ``{e}`` standing for it.  An
#: intent there must make the program impure; a pure call must not —
#: so a child that :func:`iter_children` skips shows up as one case.
POSITIONS = {
    "assign": "$x = {e};",
    "compound-assign": "$x = 'a'; $x .= {e};",
    "expr-stmt": "{e};",
    "echo-later-argument": "echo 1, {e};",
    "array-key": "$x = [{e} => 1];",
    "array-value": "$x = ['k' => 1, {e}];",
    "index-base": "$x = {e}[0];",
    "index-subscript": "$a = [1]; $x = $a[{e}];",
    "index-assign-path": "$a = []; $a['k'][{e}] = 1;",
    "index-assign-value": "$a = []; $a[] = {e};",
    "binop-left": "$x = {e} . 'a';",
    "binop-right": "$x = 'a' . {e};",
    "short-circuit-right": "$x = false && {e};",
    "unary": "$x = -{e};",
    "ternary-condition": "$x = {e} ? 1 : 2;",
    "ternary-then": "$x = true ? {e} : 2;",
    "ternary-else": "$x = true ? 1 : {e};",
    "call-later-argument": "$x = substr('abc', 1, {e});",
    "if-condition": "if ({e}) { echo 1; }",
    "if-body": "if (true) { echo {e}; }",
    "elseif-condition": "if (false) { echo 1; } elseif ({e}) { echo 2; }",
    "else-body": "if (false) { echo 1; } else { echo {e}; }",
    "while-condition": "while ({e}) { break; }",
    "while-body": "while (false) { echo {e}; }",
    "foreach-subject": "foreach ({e} as $k => $v) { echo $v; }",
    "foreach-body": "foreach ([1] as $v) { echo {e}; }",
    "return": "function f() { return {e}; } echo f();",
    "function-body": "function f() { echo {e}; return 1; } echo f();",
    "through-two-calls": ("function g() { return {e}; } "
                          "function f() { return g(); } echo f();"),
}


@pytest.mark.parametrize("position", sorted(POSITIONS))
def test_an_intent_in_any_position_is_seen(position):
    template = POSITIONS[position]
    impure = parse_program(template.replace("{e}", "time()"))
    pure = parse_program(template.replace("{e}", "strlen('x')"))
    impure_facts, pure_facts = Purity(impure), Purity(pure)
    assert not all(map(impure_facts.pure, impure.body))
    assert all(map(pure_facts.pure, pure.body))
    assert pure_facts.impure == frozenset()
    assert impure_facts.impure == impure.functions.keys()
    # The compiled bodies agree with the pass, or compiling raises.
    compile_module.compile_program(impure)
    compile_module.compile_program(pure)
