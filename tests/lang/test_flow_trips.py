"""What a fold-free loop adds to the control-flow digest.

A loop with nothing in its condition or body that branches, loops,
breaks, continues, returns or calls a user function
(:func:`repro.lang.analysis.fold_free`) folds nothing per trip, and
``("loopx", nid)`` then ``("trips", n)`` where it ends
(:mod:`repro.common.digest`).  Each case runs on the oracle, on the
generated regions (at top level, in a function, in a function that
says ``global``) and on the generator closures (a loop whose body
yields an intent), alone and as a group of two, and every run must
record the oracle's tag.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.common.digest import FlowDigest
from repro.lang import interp as interp_module
from repro.lang.analysis import fold_free, nodes
from repro.lang.ast import Foreach, If, While
from repro.lang.compile import CompInterpreter, compile_program
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.trace.events import Request
from tests.lang.driver import GROUP_ERRORS, Canned, drive

sys.path.append(str(Path(__file__).resolve().parents[2]
                    / "benchmarks" / "e2e"))
import e2e_workloads  # noqa: E402

#: Where the loops run: generated source in three kinds of scope, and
#: the generator closures (``{touch}`` yields an intent on every trip).
SCOPES = ["top", "function", "global", "closures"]


def _program(source: str, scope: str):
    """``source`` in ``scope``: a source that declares its own function
    says where the ``global`` goes (``{declare}``)."""
    declare = "global $unused; " if scope == "global" else ""
    body = source.replace("{touch}", "kv_get('k');" if scope == "closures"
                          else "").replace("{declare}", declare)
    if scope in ("function", "global") and "{declare}" not in source:
        body = f"function main() {{ {declare}{body} }} main();"
    return parse_program(body, "trips.php")


def _run(run, size: int = 1):
    output, _, error = drive(run, [Canned() for _ in range(size)],
                             GROUP_ERRORS)
    assert error is None, error
    return output


def _tag(source: str, scope: str, **get) -> str:
    """The tag of one request on ``source``: the oracle's, which the
    compiled engine records alone and for a group of two."""
    program = _program(source, scope)
    request = Request("r", "trips.php",
                      get={key: str(value) for key, value in get.items()})
    ref = _run(Interpreter(record_flow=True).run(program, request))
    got = _run(CompInterpreter(record_flow=True).run(program, request))
    assert (got.bodies, got.steps, got.flow_tag) == (
        ref.bodies, ref.steps, ref.flow_tag)
    pair = _run(compile_program(program).run_group(
        [request, request], record_flow=True), 2)
    assert (pair.bodies, pair.flow_tag) == (ref.bodies * 2, ref.flow_tag)
    return ref.flow_tag


def _loops(source: str, scope: str = "top") -> list:
    program = _program(source, scope)
    trees = [program.body, *(decl.body for decl in
                             program.functions.values())]
    found = [node for tree in trees for node in nodes(tree)
             if type(node) in (While, Foreach)]
    return sorted(found, key=lambda node: node.nid)


def _expected(*updates) -> str:
    digest = FlowDigest()
    digest.update_str("trips.php")
    for kind, target in updates:
        digest.update(kind, target)
    return digest.hexdigest()


WHILE = "$i = 0; while ($i < intval(param('n'))) { $i += 1; {touch} } echo $i;"
FOREACH = ("foreach (array_slice([1, 2, 3, 4, 5], 0, intval(param('n')))"
           " as $k => $v) { echo $k, $v; {touch} }")


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("source", [WHILE, FOREACH], ids=["while", "foreach"])
def test_n_and_n_plus_one_trips_get_different_tags(source, scope):
    (loop,) = _loops(source, scope)
    assert fold_free(loop, _program(source, scope).functions)
    tags = [_tag(source, scope, n=n) for n in range(5)]
    assert len(set(tags)) == 5
    if scope == "top":
        assert tags == [_expected(("loopx", loop.nid), ("trips", n))
                        for n in range(5)]


@pytest.mark.parametrize("scope", SCOPES)
def test_zero_trips_and_never_reached_get_different_tags(scope):
    source = ("$i = 0; if (intval(param('q'))) { while ($i < "
              "intval(param('n'))) { $i += 1; {touch} } } echo $i;")
    (loop,) = _loops(source, scope)
    reached, skipped = _tag(source, scope, q=1, n=0), _tag(source, scope, q=0)
    assert reached != skipped
    if scope == "top":
        (branch,) = [node for node in _program(source, scope).body
                     if type(node) is If]
        assert reached == _expected(("if", branch.nid * 64 + 1),
                                    ("loopx", loop.nid), ("trips", 0))


@pytest.mark.parametrize("scope", SCOPES)
def test_a_fold_free_loop_nested_in_a_branching_loop(scope):
    """The outer loop branches, so it folds ``loop`` per trip; the inner
    one folds its count at the end of each of them."""
    source = ("$i = 0; while ($i < intval(param('n'))) { $i += 1; "
              "if ($i == 2) { echo 'two'; } $j = 0; "
              "while ($j < $i) { $j += 1; {touch} } echo $j; }")
    outer, inner = _loops(source, scope)
    functions = _program(source, scope).functions
    assert not fold_free(outer, functions) and fold_free(inner, functions)
    tags = [_tag(source, scope, n=n) for n in range(4)]
    assert len(set(tags)) == 4
    if scope == "top":
        (branch,) = [node for node in nodes(outer.body)
                     if type(node) is If]
        updates = []
        for trip in range(1, 4):
            updates += [("loop", outer.nid),
                        ("if", branch.nid * 64 + (trip == 2)),
                        ("loopx", inner.nid), ("trips", trip)]
        assert tags[3] == _expected(*updates, ("loopx", outer.nid))


@pytest.mark.parametrize("scope", SCOPES[1:])
def test_a_loop_left_by_return_inside_a_function(scope):
    """A loop that may return folds as every branching loop does: one
    ``loop`` on the trip it returns in, no ``loopx``.  Counting its
    trips instead would make ``f(1), f(0)`` and ``f(0), f(1)`` one
    path: each is a bare exit and a 0-trip ``loopx``."""
    source = ("function f($c) { {declare}while ($c) { {touch} return 'r'; } "
              "return 'n'; } echo f(intval(param('a'))), "
              "f(intval(param('b')));")
    (loop,) = _loops(source, scope)
    assert not fold_free(loop, _program(source, scope).functions)
    tags = {_tag(source, scope, a=a, b=b) for a in (0, 1) for b in (0, 1)}
    assert len(tags) == 4
    if scope == "function":
        assert _tag(source, scope, a=1, b=0) == _expected(
            ("loop", loop.nid), ("loopx", loop.nid))


@pytest.mark.parametrize("source, free", [
    ("while ($i < 3) { $i += 1; $a[$i] = strlen('x') . kv_get('k'); }", True),
    ("foreach ($a as $v) { echo $v; }", True),
    ("foreach ($a ? $a : [] as $v) { echo $v; }", True),  # the subject
    ("while ($i < 3 && $j) { $i += 1; }", False),
    ("while ($i < 3) { $i += 1; echo $i ? 'y' : 'n'; }", False),
    ("while ($i < 3) { $i += 1; if ($i) { echo 1; } }", False),
    ("while ($i < 3) { $i += 1; foreach ($a as $v) { echo $v; } }", False),
    ("while ($i < 3) { $i += 1; break; }", False),
    ("foreach ($a as $v) { continue; }", False),
    ("foreach ($a as $v) { return $v; }", False),
    ("while ($i < 3) { $i = g($i); }", False),
    ("while (g($i)) { $i += 1; }", False),
])
def test_fold_free_is_a_syntactic_fact(source, free):
    program = parse_program("function g($x) { return $x + 1; } " + source)
    (loop, *_) = [node for node in nodes(program.body)
                  if type(node) in (While, Foreach)]
    assert fold_free(loop, program.functions) is free


def test_the_benchmark_loop_folds_the_digest_at_most_three_times(
        monkeypatch):
    """``compute.php`` at ``n = 300``: one fold for ``loopx`` and one for
    the trip count, not one a trip, and the compiled engine records the
    same tag."""
    folds: list = []

    class Counting(FlowDigest):
        def update(self, kind, target):
            folds.append(kind)
            super().update(kind, target)

    monkeypatch.setattr(interp_module, "FlowDigest", Counting)
    program = e2e_workloads.compute_workload(0.02, 1).app.scripts[
        "compute.php"]
    request = Request("r", "compute.php", get={"n": "300"})
    ref = _run(Interpreter(record_flow=True).run(program, request))
    assert len(folds) <= 3, folds
    got = _run(CompInterpreter(record_flow=True).run(program, request))
    assert (got.bodies, got.steps, got.flow_tag) == (
        ref.bodies, ref.steps, ref.flow_tag)
