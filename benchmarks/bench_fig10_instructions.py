"""E4 — Figure 10: per-instruction-category cost of unmodified execution
vs accelerated univalent vs multivalent (fixed + marginal) execution.

"Unmodified" is the plain interpreter the server runs; "accelerated" is
the compiled engine (:mod:`repro.lang.compile`) running a group.

Paper's categories: Multiply, Concat, Isset, Jump, GetVal, ArraySet,
Iteration, Microtime, Increment, NewArray.  Paper's findings, checked as
shape assertions where they carry over:

* the *fixed* cost of multivalent execution is high;
* the marginal per-request cost can exceed the unmodified baseline —
  "multivalent execution is worse than simply executing the instruction n
  times", so the win must come from collapse ("on demand"), not "SIMD";
* acc-PHP's univalent execution costs *more* than unmodified PHP (the
  multivalue bookkeeping rides on the same interpreter loop).  Ours does
  not: the grouped engine is compiled and the server's is a tree walker,
  so a univalent instruction costs less than an unmodified one — the
  bookkeeping is one type test per operand (``docs/backends.md``).
"""

from __future__ import annotations

import time as _time

from repro.bench import render_table
from repro.lang.compile import CompInterpreter
from repro.lang.interp import Interpreter, NondetIntent
from repro.lang.parser import parse_program
from repro.trace.events import Request

INNER = 150  # loop iterations per run
REPS = 30    # runs per measurement

# Each snippet performs its category's op once per loop iteration on $x,
# which is univalue (same param) or multivalue (per-request param).
_PREFIX = """
$x = param('v');
$arr = ['k' => $x, 'j' => 1];
$k = 0;
while ($k < %d) {
  %s
  $k = $k + 1;
}
echo 'done';
""" % (INNER, "%s")

CATEGORIES = {
    "Multiply": "$y = $x * 3;",
    "Concat": "$s = $x . 'a';",
    "Isset": "$b = array_key_exists('k', $arr);",
    "Jump": "if ($x > -1) { $j = 1; }",
    "GetVal": "$y = $arr['k'];",
    "ArraySet": "$arr['k'] = $x;",
    "Iteration": "foreach ($arr as $v) { $y = $v; }",
    "Microtime": "$t = microtime();",
    "Increment": "$x++;",
    "NewArray": "$a = [$x, 2, 3];",
}


def _finish(gen, size: int) -> None:
    """Run ``gen`` over ``size`` slots to its end.  A non-deterministic
    call gets a distinct value per slot, which keeps a group's result
    multivalent."""
    try:
        intent = next(gen)
        while True:
            if isinstance(intent, NondetIntent):
                value = [1.5 + slot for slot in range(size)]
            else:  # pragma: no cover - no state ops in these snippets
                value = [None] * size
            intent = gen.send(value)
    except StopIteration:
        pass


def _run_plain(program, request) -> None:
    _finish(Interpreter(record_flow=False).run(program, request), 1)


def _run_acc(program, requests) -> None:
    _finish(CompInterpreter(record_flow=False).run_group(program, requests),
            len(requests))


def _requests(n: int, identical: bool) -> list[Request]:
    return [
        Request(f"r{i}", "bench.php",
                get={"v": 7 if identical else 7 + i})
        for i in range(n)
    ]


def _measure(fn) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = _time.perf_counter()
        fn()
        best = min(best, _time.perf_counter() - start)
    return best / INNER  # seconds per op


def measure_category(snippet: str) -> dict[str, float]:
    program = parse_program(_PREFIX % snippet, "bench.php")
    plain = _measure(
        lambda: _run_plain(program, _requests(1, True)[0])
    )
    univalent = _measure(lambda: _run_acc(program, _requests(2, True)))
    multi_2 = _measure(lambda: _run_acc(program, _requests(2, False)))
    multi_8 = _measure(lambda: _run_acc(program, _requests(8, False)))
    marginal = max(0.0, (multi_8 - multi_2) / 6)
    fixed = max(0.0, multi_2 - 2 * marginal)
    return {
        "unmodified_us": plain * 1e6,
        "univalent_us": univalent * 1e6,
        "multivalent_fixed_us": fixed * 1e6,
        "multivalent_marginal_us": marginal * 1e6,
    }


def test_figure10_instruction_costs(capsys):
    rows = []
    for name, snippet in CATEGORIES.items():
        stats = measure_category(snippet)
        stats["category"] = name
        stats["univalent_norm"] = (
            stats["univalent_us"] / stats["unmodified_us"]
        )
        stats["multi_fixed_norm"] = (
            stats["multivalent_fixed_us"] / stats["unmodified_us"]
        )
        stats["multi_marginal_norm"] = (
            stats["multivalent_marginal_us"] / stats["unmodified_us"]
        )
        rows.append(stats)
    # Shape assertions (majority-vote: micro-timings jitter).
    fixed_exceeds_marginal = sum(
        1 for row in rows
        if row["multivalent_fixed_us"] >= row["multivalent_marginal_us"]
    )
    assert fixed_exceeds_marginal >= len(rows) // 2, (
        "the fixed multivalent cost should dominate (Figure 10)"
    )
    compiled_wins = sum(
        1 for row in rows if row["univalent_norm"] < 1.0
    )
    assert compiled_wins >= len(rows) // 2, (
        "a univalent compiled instruction should undercut the tree walker"
    )
    with capsys.disabled():
        print()
        print("=== Figure 10 reproduction (per-op cost; normalized to"
              " unmodified) ===")
        print(render_table(rows, [
            "category", "unmodified_us", "univalent_norm",
            "multi_fixed_norm", "multi_marginal_norm",
        ]))


def test_bench_multiply_plain(benchmark):
    program = parse_program(_PREFIX % CATEGORIES["Multiply"], "bench.php")
    request = _requests(1, True)[0]
    benchmark(lambda: _run_plain(program, request))


def test_bench_multiply_acc_univalent(benchmark):
    program = parse_program(_PREFIX % CATEGORIES["Multiply"], "bench.php")
    requests = _requests(2, True)
    benchmark(lambda: _run_acc(program, requests))


def test_bench_multiply_acc_multivalent(benchmark):
    program = parse_program(_PREFIX % CATEGORIES["Multiply"], "bench.php")
    requests = _requests(8, False)
    benchmark(lambda: _run_acc(program, requests))
