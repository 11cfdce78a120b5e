"""Additional weblang semantics: exactly the PHP-ish corner cases apps
lean on, checked identically in both interpreters where relevant."""

from __future__ import annotations

import pytest

from repro.common.errors import WeblangError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.trace.events import Request
from tests.lang.driver import Canned, drive


def out(src, request=None):
    program = parse_program(src)
    output, _, _ = drive(Interpreter(record_flow=False).run(
        program, request or Request("r", "s")), catch=())
    (body,) = output.bodies
    return body


def test_compound_index_assignment():
    assert out("$a = ['n' => 1]; $a['n'] += 5; echo $a['n'];") == "6"
    assert out("$a = ['s' => 'x']; $a['s'] .= 'y'; echo $a['s'];") == "xy"


def test_increment_on_array_cell():
    assert out("$a = ['n' => 1]; $a['n']++; echo $a['n'];") == "2"


def test_autovivification():
    assert out("$a['x']['y'][] = 5; echo $a['x']['y'][0];") == "5"


def test_nested_function_calls():
    assert out("echo strtoupper(substr(implode('-', [1,2,3]), 0, 3));") \
        == "1-2"


def test_function_sees_functions_defined_later():
    src = """
function outer() { return inner() + 1; }
function inner() { return 41; }
echo outer();
"""
    assert out(src) == "42"


def test_return_without_value():
    src = "function f() { return; } echo is_null(f()) ? 'null' : 'val';"
    assert out(src) == "null"


def test_missing_argument_is_null():
    src = "function f($a, $b) { return is_null($b) ? 'nb' : $b; } echo f(1);"
    assert out(src) == "nb"


def test_break_only_innermost_loop():
    src = """
$s = '';
foreach ([1, 2] as $i) {
  foreach (['a', 'b', 'c'] as $j) {
    if ($j == 'b') { break; }
    $s .= $i . $j;
  }
}
echo $s;
"""
    assert out(src) == "1a2a"


def test_continue_in_while():
    src = """
$i = 0; $s = '';
while ($i < 5) {
  $i++;
  if ($i == 3) { continue; }
  $s .= $i;
}
echo $s;
"""
    assert out(src) == "1245"


def test_foreach_over_modified_copy():
    """foreach iterates a snapshot of the subject expression's value —
    mutations during the loop don't change the iteration."""
    src = """
$a = [1, 2, 3];
foreach ($a as $v) {
  $a[] = $v * 10;   // appending must not extend this loop
}
echo count($a);
"""
    assert out(src) == "6"


def test_echo_of_bool_and_null():
    assert out("echo true, '|', false, '|', null, '|';") == "1|||"


def test_float_formatting_matches_php():
    assert out("echo 1 / 4, ' ', 4 / 2, ' ', 2.50;") == "0.25 2 2.5"


def test_negative_modulo():
    # PHP % keeps C semantics for positives; our spec: python % of ints.
    assert out("echo 7 % 3, ' ', 10 % 4;") == "1 2"


def test_string_number_comparisons():
    assert out("echo ('10' > 9) ? 'y' : 'n';") == "y"
    assert out("echo ('abc' == 0) ? 'y' : 'n';") == "n"  # PHP 8 semantics


def test_deeply_nested_expression():
    assert out("echo ((((1 + 2) * (3 + 4)) - 5) / 2);") == "8"


def test_ternary_nested():
    src = "$x = 2; echo $x == 1 ? 'one' : ($x == 2 ? 'two' : 'many');"
    assert out(src) == "two"


def test_array_in_boolean_context():
    assert out("echo [] ? 'full' : 'empty';") == "empty"
    assert out("echo [0] ? 'full' : 'empty';") == "full"


def test_undefined_index_is_null():
    assert out("$a = []; echo is_null($a['ghost']) ? 'null' : 'set';") \
        == "null"


def test_error_messages_carry_script_name():
    with pytest.raises(WeblangError) as exc:
        parse_program("if (", "broken.php")
    assert "broken.php" in str(exc.value)


def test_global_function_counter_shared_across_calls():
    src = """
$n = 0;
function tick() { global $n; $n++; return $n; }
tick(); tick();
echo tick();
"""
    assert out(src) == "3"


def test_acc_interpreter_matches_on_these_semantics():
    """The same corner-case programs, run as groups of identical
    requests, must match the plain outputs exactly."""
    from repro.lang.compile import CompInterpreter as AccInterpreter

    programs = [
        "$a = ['n' => 1]; $a['n'] += 5; echo $a['n'];",
        "$a['x']['y'][] = 5; echo $a['x']['y'][0];",
        "$a = [1,2,3]; foreach ($a as $v) { $a[] = $v; } echo count($a);",
        "echo true, '|', false, '|', null, '|';",
        "echo 1 / 4, ' ', 4 / 2, ' ', 2.50;",
    ]
    for src in programs:
        program = parse_program(src)
        requests = [Request(f"r{i}", "s") for i in range(3)]
        output, _, _ = drive(AccInterpreter().run_group(program, requests),
                             [Canned() for _ in requests], catch=())
        assert output.bodies == [out(src)] * 3, src
