"""The compiling backend (repro.lang.compile): bit-identity with the
plain interpreter, constant-fold step accounting, and the compile cache.

Every program here is driven through *both* engines in lockstep with
the same canned intent results; the produced body, flow digest, step
count, and the full intent sequence must match exactly — that is the
``compinterp`` backend's whole contract.
"""

from __future__ import annotations

import gc

import pytest

from repro.lang import compile as lc
from repro.lang.compile import (
    CompInterpreter,
    CompiledProgram,
    cache_info,
    clear_cache,
    compile_program,
    compiled_for,
)
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.trace.events import Request
from tests.lang.driver import Canned, drive, finish


def assert_equivalent(src, request=None, state_results=None,
                      nondet_value=7):
    program = parse_program(src)
    request = request or Request("r1", "s.php")
    for record_flow in (True, False):
        ref_out, ref_intents, ref_err = drive(
            Interpreter(record_flow=record_flow).run(program, request),
            [Canned(state_results or (), rest=nondet_value)])
        got_out, got_intents, got_err = drive(
            CompInterpreter(record_flow=record_flow).run(program, request),
            [Canned(state_results or (), rest=nondet_value)])
        assert repr(got_intents) == repr(ref_intents), src
        if ref_err is not None:
            assert got_err is not None, (src, ref_err)
            assert str(got_err) == str(ref_err), src
            continue
        assert got_err is None, (src, got_err)
        assert got_out.bodies == ref_out.bodies, src
        assert got_out.flow_tag == ref_out.flow_tag, src
        assert got_out.steps == ref_out.steps, src
    return True


# -- language construct corpus ------------------------------------------------

CORPUS = [
    # literals / arithmetic / precedence / folding candidates
    "echo 1 + 2 * 3, ' ', 10 / 4, ' ', 7 % 3;",
    "echo 2 + 3 . 'x' . (4 - 1);",
    "echo -5, ' ', -(2 + 3), ' ', !0, ' ', !'a';",
    "echo 'a' < 'b', ' ', 3 <= 3, ' ', 4 > 5, ' ', 2 >= 1;",
    "echo 1 == '1', ' ', 1 === '1', ' ', 1 != 2, ' ', 1 !== 1;",
    # variables, compound assignment
    "$x = 5; $x += 3; $x -= 1; $s = 'v='; $s .= $x; echo $s;",
    "$x = 2; $x *= 3; $x /= 2; echo $x;",
    # short-circuit logic (digest-visible)
    "$a = 1; echo $a && 2, ' ', 0 && 1, ' ', 0 || 3, ' ', 2 || 0;",
    # ternary (digest-visible)
    "$x = 4; echo $x > 3 ? 'big' : 'small';",
    "$x = 1; echo $x > 3 ? 'big' : 'small';",
    # if / elseif / else chains
    "$x = 2; if ($x == 1) { echo 'a'; } elseif ($x == 2) { echo 'b'; }"
    " else { echo 'c'; }",
    "$x = 9; if ($x == 1) { echo 'a'; } elseif ($x == 2) { echo 'b'; }"
    " else { echo 'c'; }",
    "if (1) {} echo 'after';",
    # while loops, break/continue
    "$i = 0; while ($i < 5) { $i += 1; if ($i == 3) { continue; }"
    " echo $i; }",
    "$i = 0; while (1) { $i += 1; if ($i > 3) { break; } echo $i; }",
    # foreach over arrays, key/value
    "$a = [3, 1, 2]; foreach ($a as $v) { echo $v, ';'; }",
    "$a = ['x' => 1, 'y' => 2]; foreach ($a as $k => $v)"
    " { echo $k, '=', $v, ' '; }",
    "$a = [1, 2, 3, 4]; foreach ($a as $v) { if ($v == 2) { continue; }"
    " if ($v == 4) { break; } echo $v; }",
    # array literals, indexing, nested, append
    "$a = []; $a[] = 'p'; $a[] = 'q'; echo $a[0], $a[1], count($a);",
    "$a = ['k' => ['n' => 5]]; $a['k']['n'] += 2; echo $a['k']['n'];",
    "$m = [1, [2, 3]]; echo $m[1][0], $m[1][1];",
    "$s = 'hello'; echo $s[0], $s[4], $s[99];",
    "$a = [1, 2]; $b = $a; $b[] = 3; echo count($a), count($b);",
    # functions, args, returns, recursion, depth
    "function add($a, $b) { return $a + $b; } echo add(2, 3);",
    "function fib($n) { if ($n < 2) { return $n; }"
    " return fib($n - 1) + fib($n - 2); } echo fib(10);",
    "function greet($who) { echo 'hi ', $who; } greet('x'); greet('y');",
    "function noret() { $x = 1; } echo noret(), 'done';",
    "function deflt($a) { return $a; } echo deflt(), '|';",
    # mutual recursion
    "function even($n) { if ($n == 0) { return 1; }"
    " return odd($n - 1); }"
    " function odd($n) { if ($n == 0) { return 0; }"
    " return even($n - 1); } echo even(7), odd(7);",
    # globals
    "function bump() { global $c; $c = $c + 1; return $c; }"
    " $c = 10; echo bump(), bump(), $c;",
    "$g = 'top'; function reads() { global $g; return $g; }"
    " echo reads();",
    # pure builtins
    "echo strlen('abc'), strtoupper('ab'), substr('hello', 1, 3);",
    "echo implode(',', [1, 2, 3]), ' ', count(explode('-', 'a-b-c'));",
    "$a = [5, 3, 8]; sort($a); echo implode(',', $a);",
    "echo sprintf('%03d-%s', 7, 'x'), ' ', number_format(1234.5, 1);",
    "echo max(1, 9, 3), min([4, 2, 6]), abs(-3), round(2.6);",
    "echo md5('seed'), '|', htmlspecialchars('<a&b>');",
    "echo in_array(2, [1, 2]), array_key_exists('k', ['k' => 0]);",
    "echo str_replace('a', 'b', 'banana'), str_pad('7', 3, '0');",
    "echo is_numeric('12'), is_array([1]), is_null(0), empty('');",
    # request inputs
    "echo param('q', 'none'), '|', post_param('b', 'x'), '|',"
    " cookie('c', 'y');",
    # nondet builtins
    "echo rand(1, 6), ' ', time();",
    "$u = uniqid(); echo strlen($u) > 0;",
    # state builtins (canned results)
    "kv_set('k', 41); $v = kv_get('k'); echo $v;",
    "reg_write('r', [1, 2]); $v = reg_read('r'); echo count($v);",
    # transactions
    "db_begin(); db_exec('INSERT 1'); db_commit(); echo 'tx done';",
    "db_begin(); db_rollback(); echo 'rb';",
    # external calls
    "send_email('to@x', 'subj', 'body'); echo 'sent';",
    "external_call('svc', 'p1', 'p2'); echo 'called';",
    # runtime errors must match message for message
    "echo $undefined + [];",
    "foreach (42 as $v) { echo $v; }",
    "$x = 'str'; echo $x['k']['n'];",
    "nosuchfn(1, 2);",
    "db_commit();",
    "db_begin(); db_begin();",
    "db_begin(); kv_get('k');",
    "break;",
    "$a = [1]; $a[] += 2; echo 'no';",
    "function f() { return f(); } f();",
    # top-level return ends the script
    "echo 'a'; return; echo 'b';",
    # open transaction at script end is an error
    "db_begin(); echo 'x';",
]


@pytest.mark.parametrize("src", CORPUS)
def test_compiled_matches_interp(src):
    canned = [None, [{"id": 1}], 1, True, [1, 2], None]
    assert_equivalent(src, state_results=canned)


def test_session_builtins_match():
    request = Request("r1", "s.php", cookies={"sess": "abc"})
    assert_equivalent("session_put(['n' => 1]); $s = session_get();"
                      " echo $s['n'];",
                      request=request, state_results=[None, {"n": 2}])
    # No cookie: same error from both engines.
    assert_equivalent("session_get();")


def test_db_query_result_conversion_matches():
    rows = [{"id": 1, "title": "t"}, {"id": 2, "title": "u"}]
    assert_equivalent(
        "$r = db_query('SELECT'); echo count($r), $r[0]['title'];",
        state_results=[rows],
    )


# -- constant folding ---------------------------------------------------------


def test_constant_fold_preserves_step_count():
    # 1+2*3 folds to one closure but must still count 5 steps
    # (three literals + two operators), like the tree walk.
    assert_equivalent("$x = 1 + 2 * 3; echo $x;")
    assert_equivalent("echo 'a' . 'b' . 'c';")
    assert_equivalent("echo !(1 < 2), -(3 * 4);")


def test_folding_never_hides_a_runtime_error():
    # 1 % 0 would fold to an error: it must stay a runtime error that
    # fires after the echo of 'pre', exactly like the interpreter.
    assert_equivalent("echo 'pre'; echo 1 % 0;")
    assert_equivalent("echo 'pre'; echo 1 / 0;")
    assert_equivalent("echo -('a' % 2);")


# -- the compile cache --------------------------------------------------------


def test_compiled_for_caches_by_identity():
    clear_cache()
    program = parse_program("echo 'cached';")
    first = compiled_for(program)
    assert compiled_for(program) is first
    assert cache_info()["misses"] == 1
    assert cache_info()["entries"] == 1


def test_cache_keyed_by_dialect():
    clear_cache()
    program = parse_program("kv_set('k', 1);")
    a = compiled_for(program, kv_name="kv:apc")
    b = compiled_for(program, kv_name="kv:other")
    assert a is not b
    assert cache_info()["misses"] == 2


def test_cache_evicts_collected_programs():
    clear_cache()
    program = parse_program("echo 1;")
    compiled_for(program)
    assert cache_info()["entries"] == 1
    del program
    gc.collect()
    assert cache_info()["entries"] == 0


def test_clear_cache_resets_counters():
    program = parse_program("echo 1;")
    compiled_for(program)
    clear_cache()
    assert cache_info() == {"entries": 0, "misses": 0}


def test_compile_program_is_uncached():
    program = parse_program("echo 1;")
    assert compile_program(program) is not compile_program(program)


def test_compinterp_reuses_compiled_code_across_runs():
    clear_cache()
    program = parse_program("echo param('q', 'd');")
    engine = CompInterpreter(record_flow=False)
    for index in range(3):
        output = finish(engine.run(program, Request(f"r{index}", "s.php")))
        assert output.bodies == ["d"]
    assert cache_info()["misses"] == 1


def test_compiled_program_type():
    assert isinstance(compiled_for(parse_program("echo 1;")),
                      CompiledProgram)


def test_cache_module_state_is_importable():
    # The worker-side compile-on-first-use contract: the cache is plain
    # module state, nothing travels through pickles.
    assert lc._CACHE is not None
