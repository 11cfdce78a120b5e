"""The SIMD-on-demand interpreter: equivalence with the plain interpreter,
divergence detection, collapse economics (§3.1, §4.3).

The load-bearing property (the paper's "difference (ii)" in §A.6): grouped
execution must be *identical* to executing each request individually.  We
check it over the full expression/statement surface with per-request
inputs, including hypothesis-generated input vectors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.compile import CompInterpreter as AccInterpreter
from repro.common.errors import DivergenceError
from repro.lang.interp import Interpreter, StateOpIntent
from repro.lang.parser import parse_program
from repro.trace.events import Request
from tests.lang.driver import Canned, drive


def run_plain(src, request, state_results=None, nondet=99):
    program = parse_program(src)
    output, _, _ = drive(Interpreter(record_flow=False).run(program, request),
                         [Canned(state_results or (), rest=nondet)], catch=())
    (body,) = output.bodies
    return body


def run_group(src, requests, state_results=None, nondet=99,
              collapse=True):
    """state_results: list per op of per-slot results."""
    program = parse_program(src)
    acc = AccInterpreter(collapse_enabled=collapse)
    per_slot = zip(*state_results) if state_results else [()] * len(requests)
    output, _, _ = drive(acc.run_group(program, requests),
                         [Canned(replies, rest=nondet) for replies in per_slot],
                         catch=())
    return output


def assert_equiv(src, requests, state_results_plain=None,
                 state_results_group=None):
    expected = [
        run_plain(src, request,
                  state_results=list(state_results_plain or []))
        for request in requests
    ]
    output = run_group(src, requests, state_results=state_results_group)
    assert output.bodies == expected
    return output


def reqs(*gets):
    return [
        Request(f"r{i}", "s.php", get=g) for i, g in enumerate(gets)
    ]


# -- equivalence over language surface ----------------------------------------


def test_figure2_example():
    """The paper's §4.3 acc-PHP walkthrough (x+y, max, parity)."""
    src = """
$sum = param('x') + param('y');
$larger = max($sum, param('z'));
$odd = ($larger % 2) ? "True" : "False";
echo $odd;
"""
    output = assert_equiv(src, reqs(
        {"x": 1, "y": 3, "z": 10}, {"x": 2, "y": 4, "z": 10},
    ))
    # Line 2 collapses $larger to a univalue, so lines 3-4 are univalent
    # (the Figure 2 deduplication).
    assert output.multi_steps < output.steps


def test_arithmetic_componentwise():
    src = "echo param('a') * 2 + 1, ':', param('a') . 'x';"
    assert_equiv(src, reqs({"a": 3}, {"a": 5}, {"a": 3}))


def test_univalent_inputs_stay_univalent():
    src = "echo param('a') + 1;"
    output = assert_equiv(src, reqs({"a": 7}, {"a": 7}, {"a": 7}))
    assert output.multi_steps == 0


def test_foreach_over_multivalue_arrays():
    src = """
$parts = explode(',', param('csv'));
foreach ($parts as $i => $p) { echo $i, ':', strtoupper($p), ';'; }
"""
    assert_equiv(src, reqs({"csv": "a,b"}, {"csv": "c,d"}))


def test_foreach_trip_count_divergence():
    src = """
$parts = explode(',', param('csv'));
foreach ($parts as $p) { echo $p; }
"""
    with pytest.raises(DivergenceError):
        run_group(src, reqs({"csv": "a,b"}, {"csv": "a,b,c"}))


def test_branch_divergence_detected():
    src = "if (param('x') > 5) { echo 'hi'; } else { echo 'lo'; }"
    with pytest.raises(DivergenceError):
        run_group(src, reqs({"x": 9}, {"x": 1}))


def test_ternary_divergence_detected():
    src = "echo param('x') ? 'y' : 'n';"
    with pytest.raises(DivergenceError):
        run_group(src, reqs({"x": 1}, {"x": 0}))


def test_while_divergence_detected():
    src = "$i = 0; while ($i < intval(param('n'))) { $i++; } echo $i;"
    with pytest.raises(DivergenceError):
        run_group(src, reqs({"n": "2"}, {"n": "4"}))


def test_logical_divergence_detected():
    src = "$b = param('x') && true; echo $b ? 1 : 0;"
    with pytest.raises(DivergenceError):
        run_group(src, reqs({"x": 1}, {"x": 0}))


def test_logical_right_operand_is_a_value_not_a_branch():
    """Only the left operand of ``&&`` / ``||`` decides where control
    goes (it alone is in the flow digest); a right operand whose truth
    differs by slot yields per-slot booleans.  The tree-walking grouped
    interpreter raised a false divergence here."""
    values = "$b = true && param('x'); $c = false || param('x');"
    assert_equiv(values + " echo $b, '|', $c;", reqs({"x": 1}, {"x": 0}))
    with pytest.raises(DivergenceError):  # branching on them does diverge
        run_group(values + " echo $b ? 1 : 0;", reqs({"x": 1}, {"x": 0}))


def test_same_branch_no_divergence():
    src = "if (param('x') > 5) { echo param('x'); } else { echo 'n'; }"
    assert_equiv(src, reqs({"x": 9}, {"x": 7}))


def test_builtin_split_on_multivalue():
    src = "echo strtoupper(param('w')), strlen(param('w'));"
    assert_equiv(src, reqs({"w": "ab"}, {"w": "xyz"}))


def test_builtin_split_array_with_multivalue_cells():
    src = """
$a = ['k' => param('v'), 'c' => 1];
echo implode('-', array_values($a));
"""
    assert_equiv(src, reqs({"v": "p"}, {"v": "q"}))


def test_user_function_with_multivalue_args():
    src = """
function wrap($s) { return '[' . $s . ']'; }
echo wrap(param('v')), wrap('fixed');
"""
    assert_equiv(src, reqs({"v": "a"}, {"v": "b"}))


def test_container_cell_holds_multivalue():
    """§4.3: univalue container, univalue key, multivalue value."""
    src = """
$obj = ['shared' => 1];
$obj['mine'] = param('v');
echo $obj['shared'], $obj['mine'];
"""
    assert_equiv(src, reqs({"v": "x"}, {"v": "y"}))


def test_multivalue_key_expands_container():
    """§4.3: univalue container, multivalue key -> expansion."""
    src = """
$obj = ['a' => 0, 'b' => 0];
$obj[param('k')] = 1;
echo $obj['a'], $obj['b'];
"""
    assert_equiv(src, reqs({"k": "a"}, {"k": "b"}))


def test_nested_set_through_expanded_container():
    src = """
$obj = [];
$obj[param('k')]['deep'] = param('v');
$obj['common']['c'] = 5;
echo count($obj), $obj['common']['c'];
"""
    assert_equiv(src, reqs({"k": "a", "v": 1}, {"k": "b", "v": 2}))


def test_append_with_multivalue_value():
    src = """
$list = [];
$list[] = param('v');
$list[] = 'fixed';
echo implode(',', $list);
"""
    assert_equiv(src, reqs({"v": "1"}, {"v": "2"}))


def test_string_index_componentwise():
    src = "$s = param('s'); echo $s[0], $s[1];"
    assert_equiv(src, reqs({"s": "ab"}, {"s": "cd"}))


def test_compound_assign_multivalue():
    src = "$x = param('a'); $x += 10; $s = 'v'; $s .= $x; echo $s;"
    assert_equiv(src, reqs({"a": 1}, {"a": 2}))


def test_array_literal_with_multivalue_key():
    src = """
$a = [param('k') => 'v', 'fixed' => 1];
echo count($a), $a['fixed'];
"""
    assert_equiv(src, reqs({"k": "x"}, {"k": "y"}))


def test_unop_multivalue():
    src = "echo -param('a'), !param('b') ? 'f' : 't';"
    assert_equiv(src, reqs({"a": 1, "b": 0}, {"a": 2, "b": 0}))


def test_deep_value_isolation_between_slots():
    """Mutating one slot's tree must not leak into another slot (the
    disjointness invariant behind per-slot expansion)."""
    src = """
$shared = ['n' => 0];
$holder = [];
$holder[param('k')] = $shared;
$holder[param('k')]['n'] = param('v');
echo $holder[param('k')]['n'], $shared['n'];
"""
    assert_equiv(src, reqs({"k": "a", "v": 7}, {"k": "b", "v": 8}))


#: The slot-isolation and container-expansion cases above, with two of
#: the slots starting in one class (they agree on ``k``, so the arrays
#: built from it are one class's array) and parting ways on ``v`` — a
#: per-slot write then has to split the class, not write through it.
SHARED_CLASS_CASES = {
    "multivalue key expands container": """
$obj = ['a' => 0, 'b' => 0];
$obj[param('k')] = param('v');
echo $obj['a'], $obj['b'];
""",
    "nested set through expanded container": """
$obj = [];
$obj[param('k')]['deep'] = param('v');
$obj['common']['c'] = 5;
echo count($obj), $obj['common']['c'], $obj[param('k')]['deep'];
""",
    "array literal with multivalue key": """
$a = [param('k') => 'v', 'fixed' => 1];
$b = $a;
$b[param('k')] = param('v');
echo count($a), $a[param('k')], $b[param('k')], $a['fixed'];
""",
    "deep value isolation between slots": """
$shared = ['n' => 0];
$holder = [];
$holder[param('k')] = $shared;
$holder[param('k')]['n'] = param('v');
echo $holder[param('k')]['n'], $shared['n'];
""",
    "a class's array written per slot, then read back per class": """
$rows = [param('k') => ['hits' => 0]];
$copy = $rows;
$rows[param('k')]['hits'] += param('v');
$rows[param('k')]['seen'][] = param('v');
echo $rows[param('k')]['hits'], '/', $copy[param('k')]['hits'], '/',
     implode(',', $rows[param('k')]['seen']), '/', count($copy);
""",
    "built-in keeps a broadcast array": """
$base = ['x' => [1], 'y' => [2]];
$mine = array_merge($base, [param('k') => [param('v')]]);
$mine[param('k')][] = param('v');
echo count($base['x']), count($mine[param('k')]), count($mine);
""",
}


@pytest.mark.parametrize("case", sorted(SHARED_CLASS_CASES))
def test_container_paths_with_two_slots_in_one_class(case):
    requests = reqs({"k": "a", "v": 7}, {"k": "b", "v": 8},
                    {"k": "a", "v": 9}, {"k": "a", "v": 7})
    output = assert_equiv(SHARED_CLASS_CASES[case], requests)
    assert output.multi_steps
    # Fewer classes than slots were computed: the twin did start shared.
    assert output.multi_classes < output.multi_slots


def test_group_of_one():
    src = "echo param('x') + 1;"
    output = run_group(src, reqs({"x": 1}))
    assert output.bodies == ["2"]
    assert output.multi_steps == 0
    assert (output.multi_slots, output.multi_classes) == (0, 0)


def test_output_interleaving_univalent_multivalent():
    src = "echo 'head:', param('x'), ':tail';"
    output = assert_equiv(src, reqs({"x": "a"}, {"x": "b"}))
    assert output.bodies == ["head:a:tail", "head:b:tail"]


# -- state ops in group mode ------------------------------------------------------


def test_group_state_intents_carry_per_slot_args():
    src = "kv_set('k:' . param('u'), param('v')); echo 'ok';"
    program = parse_program(src)
    acc = AccInterpreter()
    gen = acc.run_group(program, reqs({"u": "a", "v": 1},
                                      {"u": "b", "v": 2}))
    intent = next(gen)
    assert isinstance(intent, StateOpIntent)
    assert intent.kind == "kv_set"
    assert intent.args == [("k:a", 1), ("k:b", 2)]
    try:
        gen.send([None, None])
    except StopIteration as stop:
        assert stop.value.bodies == ["ok", "ok"]


def test_group_session_registers_named_per_cookie():
    src = "session_put(['u' => 1]); echo 'ok';"
    program = parse_program(src)
    acc = AccInterpreter()
    requests = [
        Request("r1", "s.php", cookies={"sess": "alice"}),
        Request("r2", "s.php", cookies={"sess": "bob"}),
    ]
    gen = acc.run_group(program, requests)
    intent = next(gen)
    assert intent.kind == "register_write"
    assert intent.objs == ["reg:sess:alice", "reg:sess:bob"]


def test_group_db_results_collapse():
    """Identical per-slot DB results collapse to a univalue (the dedup
    payoff: downstream rendering is univalent)."""

    class R:
        rows = [{"v": 1}]
        affected = 0
        last_insert_id = None

    src = "$rows = db_query('SELECT v FROM t'); echo $rows[0]['v'];"
    output = run_group(src, reqs({}, {}),
                       state_results=[[R(), R()]])
    assert output.bodies == ["1", "1"]


def test_group_nondet_collapse():
    src = "echo time();"
    output = run_group(src, reqs({}, {}), nondet=123)
    assert output.bodies == ["123", "123"]
    assert output.multi_steps == 0


# -- collapse ablation ---------------------------------------------------------------


def test_collapse_off_still_correct_but_more_multivalent():
    src = """
$sum = param('x') + param('y');
$larger = max($sum, 10);
echo ($larger % 2) ? "T" : "F";
"""
    requests = reqs({"x": 1, "y": 3}, {"x": 2, "y": 2})
    with_collapse = run_group(src, requests, collapse=True)
    without = run_group(src, requests, collapse=False)
    assert with_collapse.bodies == without.bodies
    assert without.multi_steps > with_collapse.multi_steps
    # Collapse off is the identity partition, never regrouped.
    assert without.multi_classes == without.multi_slots \
        == 2 * without.multi_steps
    assert with_collapse.multi_slots == 2 * with_collapse.multi_steps


# -- property-based equivalence ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=5),
    k=st.integers(min_value=0, max_value=50),
)
def test_property_arith_equivalence(xs, k):
    src = f"""
$v = intval(param('x'));
$w = $v * 3 - {k};
$t = ($w . '|' . ({k} + 1)) . strtoupper('ab');
echo $t, '#', max($v, {k}), '#', min($v * $v, 100);
"""
    requests = reqs(*({"x": str(x)} for x in xs))
    expected = [run_plain(src, r) for r in requests]
    assert run_group(src, requests).bodies == expected


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(
        st.text(alphabet="abcxyz", min_size=1, max_size=5),
        min_size=1, max_size=4,
    ),
)
def test_property_string_builtin_equivalence(words):
    src = """
$w = param('w');
echo strtoupper($w), strlen($w), substr($w, 1),
     str_replace('a', 'Z', $w), md5($w);
"""
    requests = reqs(*({"w": w} for w in words))
    expected = [run_plain(src, r) for r in requests]
    assert run_group(src, requests).bodies == expected


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=9), min_size=2,
                    max_size=4),
)
def test_property_array_equivalence(values):
    src = """
$a = ['v' => param('v'), 'c' => 'const'];
$a['list'][] = param('v') + 1;
$a['list'][] = 2;
echo implode(',', $a['list']), '|', $a['v'], '|', $a['c'],
     '|', count($a);
"""
    requests = reqs(*({"v": v} for v in values))
    expected = [run_plain(src, r) for r in requests]
    assert run_group(src, requests).bodies == expected
