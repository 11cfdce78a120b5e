"""The plain interpreter: language semantics, digests, state-op intents."""

from __future__ import annotations

import pytest

from repro.common.errors import WeblangError
from repro.lang.interp import (
    Interpreter,
    NondetIntent,
    StateOpIntent,
    freeze_value,
    thaw_value,
)
from repro.lang.parser import parse_program
from repro.lang.values import PhpArray
from repro.trace.events import Request
from tests.lang.driver import Canned, drive, finish


def run(src, request=None, state_results=None, nondet_value=7,
        record_flow=False):
    """Drive a program with canned state-op results (list, in order)."""
    program = parse_program(src)
    interp = Interpreter(record_flow=record_flow)
    output, intents, _ = drive(
        interp.run(program, request or Request("r1", "s.php")),
        [Canned(state_results or (), rest=nondet_value)], catch=())
    return output, intents


def out(src, **kwargs):
    (body,) = run(src, **kwargs)[0].bodies
    return body


# -- language basics ------------------------------------------------------------


def test_arithmetic_and_echo():
    assert out("echo 1 + 2 * 3, ' ', 10 / 4, ' ', 7 % 3;") == "7 2.5 1"


def test_string_concat_and_escape():
    assert out("echo 'a' . 'b' . 1, \"\\n\";") == "ab1\n"


def test_variables_and_compound_assign():
    assert out("$x = 5; $x += 3; $x -= 1; $s = 'v='; $s .= $x; echo $s;") \
        == "v=7"


def test_if_chain():
    src = """
$x = intval(param('x'));
if ($x > 10) { echo 'big'; }
elseif ($x > 5) { echo 'mid'; }
else { echo 'small'; }
"""
    assert out(src, request=Request("r", "s", get={"x": "20"})) == "big"
    assert out(src, request=Request("r", "s", get={"x": "7"})) == "mid"
    assert out(src, request=Request("r", "s", get={"x": "1"})) == "small"


def test_while_with_break_continue():
    src = """
$i = 0; $acc = '';
while (true) {
  $i++;
  if ($i > 8) { break; }
  if ($i % 2) { continue; }
  $acc .= $i;
}
echo $acc;
"""
    assert out(src) == "2468"


def test_foreach_key_value():
    src = """
$a = ['x' => 1, 'y' => 2];
foreach ($a as $k => $v) { echo $k, '=', $v, ';'; }
"""
    assert out(src) == "x=1;y=2;"


def test_functions_recursion():
    src = """
function fib($n) {
  if ($n < 2) { return $n; }
  return fib($n - 1) + fib($n - 2);
}
echo fib(10);
"""
    assert out(src) == "55"


def test_function_local_scope():
    src = """
$x = 'global';
function f() { $x = 'local'; return $x; }
echo f(), ':', $x;
"""
    assert out(src) == "local:global"


def test_global_declaration():
    src = """
$count = 10;
function bump() { global $count; $count = $count + 1; return $count; }
echo bump(), ':', $count;
"""
    assert out(src) == "11:11"


def test_recursion_depth_limited():
    src = "function f($n) { return f($n + 1); } echo f(0);"
    with pytest.raises(WeblangError):
        out(src)


def test_nested_arrays():
    src = """
$a = [];
$a['u']['v'] = 1;
$a['u']['w'] = 2;
$a['list'][] = 'first';
$a['list'][] = 'second';
echo $a['u']['v'], $a['u']['w'], count($a['list']), $a['list'][1];
"""
    assert out(src) == "122second"


def test_array_value_semantics():
    """Assignment copies arrays (PHP value semantics)."""
    src = """
$a = [1, 2];
$b = $a;
$b[] = 3;
echo count($a), count($b);
"""
    assert out(src) == "23"


def test_foreach_binding_is_a_copy():
    src = """
$rows = [['v' => 1], ['v' => 2]];
foreach ($rows as $row) { $row['v'] = 99; }
echo $rows[0]['v'], $rows[1]['v'];
"""
    assert out(src) == "12"


def test_function_args_are_copies():
    src = """
function mutate($arr) { $arr[] = 99; return count($arr); }
$a = [1];
echo mutate($a), count($a);
"""
    assert out(src) == "21"


def test_ternary_and_logic():
    assert out("echo (2 > 1) ? 'y' : 'n';") == "y"
    assert out("echo (1 && 0) ? 'y' : 'n';") == "n"
    assert out("echo (0 || 'x') ? 'y' : 'n';") == "y"


def test_short_circuit_skips_side_effects():
    src = """
function boom() { global $hit; $hit = 1; return true; }
$hit = 0;
$x = false && boom();
echo $hit;
"""
    assert out(src) == "0"


def test_string_indexing():
    assert out("$s = 'abc'; echo $s[1], $s[9];") == "b"


def test_top_level_return_stops_script():
    assert out("echo 'a'; return; echo 'b';") == "a"


def test_undefined_variable_is_null():
    assert out("echo is_null($ghost) ? 'null' : 'set';") == "null"


def test_undefined_function_raises():
    with pytest.raises(WeblangError):
        out("mystery();")


# -- request inputs ---------------------------------------------------------------


def test_param_post_cookie_with_defaults():
    request = Request("r", "s", get={"a": "1"}, post={"b": "2"},
                      cookies={"c": "3"})
    src = "echo param('a'), post_param('b'), cookie('c'), param('zz', 'd');"
    assert out(src, request=request) == "123d"


# -- intents ------------------------------------------------------------------------


def test_state_intents_emitted_in_order():
    src = """
kv_set('k', 1);
$v = kv_get('k');
reg_write('R', $v);
echo reg_read('R');
"""
    output, intents = run(src, state_results=[None, 42, None, 42])
    kinds = [i.kind for i in intents if isinstance(i, StateOpIntent)]
    assert kinds == ["kv_set", "kv_get", "register_write", "register_read"]
    assert intents[2].objs == ["reg:g:R"]
    assert output.bodies == ["42"]


def test_db_transaction_intents():
    src = """
db_begin();
db_exec("INSERT INTO t (v) VALUES (1)");
$ok = db_commit();
echo $ok ? 'ok' : 'fail';
"""

    class FakeResult:
        rows = None
        affected = 1
        last_insert_id = 1

    output, intents = run(src, state_results=[None, FakeResult(), True])
    kinds = [i.kind for i in intents if isinstance(i, StateOpIntent)]
    assert kinds == ["db_begin", "db_statement", "db_commit"]
    assert output.bodies == ["ok"]


def test_kv_op_inside_transaction_forbidden():
    src = "db_begin(); kv_get('x'); db_commit();"
    with pytest.raises(WeblangError):
        run(src, state_results=[None, None, True])


def test_open_transaction_at_script_end_raises():
    with pytest.raises(WeblangError):
        run("db_begin();", state_results=[None])


def test_nondet_intent():
    output, intents = run("echo time();", nondet_value=123)
    assert isinstance(intents[0], NondetIntent)
    assert output.bodies == ["123"]


def test_session_requires_cookie():
    with pytest.raises(WeblangError):
        out("session_get();")


# -- digests ---------------------------------------------------------------------


def _tag(src, request):
    output, _ = run(src, request=request, record_flow=True)
    return output.flow_tag


def test_same_path_same_tag():
    src = "if (param('x') > 5) { echo 'a'; } else { echo 'b'; }"
    tag1 = _tag(src, Request("r1", "s", get={"x": "9"}))
    tag2 = _tag(src, Request("r2", "s", get={"x": "7"}))
    assert tag1 == tag2


def test_different_branch_different_tag():
    src = "if (param('x') > 5) { echo 'a'; } else { echo 'b'; }"
    tag1 = _tag(src, Request("r1", "s", get={"x": "9"}))
    tag2 = _tag(src, Request("r2", "s", get={"x": "1"}))
    assert tag1 != tag2


def test_loop_trip_count_changes_tag():
    src = "$i = 0; while ($i < intval(param('n'))) { $i++; } echo $i;"
    tag1 = _tag(src, Request("r1", "s", get={"n": "2"}))
    tag2 = _tag(src, Request("r2", "s", get={"n": "3"}))
    assert tag1 != tag2


def test_ternary_changes_tag():
    src = "echo param('x') ? 'y' : 'n';"
    tag1 = _tag(src, Request("r1", "s", get={"x": "1"}))
    tag2 = _tag(src, Request("r2", "s", get={"x": "0"}))
    assert tag1 != tag2


def test_script_name_in_tag():
    a = parse_program("echo 1;", "a.php")
    b = parse_program("echo 1;", "b.php")
    interp = Interpreter(record_flow=True)

    def tag_of(prog):
        return finish(interp.run(prog, Request("r", prog.name))).flow_tag

    assert tag_of(a) != tag_of(b)


def test_steps_counted():
    output, _ = run("$x = 1; $y = 2; echo $x + $y;")
    assert output.steps > 0


# -- freeze/thaw -------------------------------------------------------------------


def test_freeze_thaw_roundtrip():
    array = PhpArray.from_dict(
        {"a": 1, "b": PhpArray.from_list(["x", 2.5, None, True])}
    )
    frozen = freeze_value(array)
    assert isinstance(frozen, tuple)
    hash(frozen)  # must be hashable/comparable
    thawed = thaw_value(frozen)
    assert isinstance(thawed, PhpArray)
    assert thawed == array


def test_freeze_rejects_exotic_values():
    with pytest.raises(WeblangError):
        freeze_value(object())
