"""Differential fuzzing of the re-execution engines.

Three layers, all seeded and deterministic:

* **engine lockstep** — ~200 randomized weblang programs driven through
  the plain :class:`~repro.lang.interp.Interpreter` and the compiled
  engine's group-of-one :meth:`~repro.lang.compile.CompInterpreter.run`
  with identical canned intent results; produced body, flow digest,
  instruction count (``RunOutput.steps``), the full intent sequence,
  and error behaviour must match exactly;
* **group lockstep** — the same kind of programs run as a *group* of
  2-12 requests drawn with replacement from a few profiles of inputs
  and per-slot intent results (so most multivalues have fewer classes
  than the group has slots), against one ``Interpreter`` run per slot:
  when every slot takes the same control flow the group must complete
  with each slot's body, each slot's intent operands and the
  interpreter's ``steps``; when they branch apart (or any slot errors)
  it must not complete;
* **audit lockstep** — randomized applications recorded with the real
  executor and audited under every backend name: all must agree on the
  verdict and the produced bodies, and the two per-request disciplines
  (``interp``, ``compinterp``) on every deterministic stat bit for bit.

The generator emits *textual* source and goes through the real parser,
so fuzzing also covers the parse → AST → compile pipeline.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.common.errors import MultivalueFallback, WeblangError
from repro.core import ssco_audit
from repro.lang import interp as interp_module
from repro.lang import simd
from repro.lang.compile import CompInterpreter, compiled_for
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import PhpArray, freeze_value
from repro.multivalue import MultiValue, Partition
from repro.server import Application, Executor, RandomScheduler
from repro.server.nondet import NondetSource
from repro.trace.events import Request
from tests.lang.driver import GROUP_ERRORS, Canned, drive, stacked

ENGINE_CASES = 200
GROUP_CASES = 320
AUDIT_CASES = 24

#: Deterministic stats (no timers) that the two per-request engines
#: must produce identically at audit level.
_DET_STATS = (
    "shard_count", "graph_nodes", "graph_edges", "db_queries_issued",
    "dedup_hits", "dedup_misses", "groups", "grouped_requests",
    "fallback_requests", "divergences", "steps", "multi_steps",
    "multi_slots", "multi_classes",
)


#: A loop bound read from the request: a multivalue across a group whose
#: members differ in ``q``.
MIN_Q = "min(intval(param('q', 2)), 4)"


class ProgramGen:
    """A seeded random weblang program generator.

    Emits source text: bounded loops (counter idiom, some carrying an
    accumulator whose type flips every trip), non-recursive
    helper functions, arithmetic/string/array expressions, request
    inputs, nondet built-ins, and key-value/register state ops.
    Programs may raise :class:`WeblangError` at runtime — that is a
    feature: both engines must fail identically.

    ``typed`` keeps arrays and scalars in separate variables (``$xs`` /
    ``$ys`` are always arrays, never indexed scalars), so most programs
    run to completion and spend their time in the container rules —
    what the group layer needs; the untyped corpus is unchanged.
    """

    PURE_CALLS = [
        ("strlen", 1), ("strtoupper", 1), ("strtolower", 1),
        ("intval", 1), ("strval", 1), ("abs", 1), ("md5", 1),
        ("trim", 1), ("ucfirst", 1), ("boolval", 1), ("is_numeric", 1),
        ("count", 1), ("max", 2), ("min", 2), ("substr", 2),
    ]

    def __init__(self, rng: random.Random, state_ops: bool = True,
                 typed: bool = False, calls: bool = False):
        self.rng = rng
        self.state_ops = state_ops
        self.typed = typed
        #: Whether expressions take the call shapes too (:meth:`called`);
        #: the corpora without them are unchanged.
        self.calls = calls
        self.vars = ["a", "b", "c"]
        self.arrays = ["xs", "ys"]
        self.funcs = []
        self.loop_id = 0

    # -- expressions ------------------------------------------------------

    def literal(self) -> str:
        """Literals that probe the compiled engine's exact-type guards:
        bools and null next to ints, ``0`` / ``-0`` divisors, ints past
        64 bits once squared, numeric strings that juggle."""
        r = self.rng
        pick = r.randrange(6)
        if pick == 0:
            return str(r.randrange(-9, 100))
        if pick == 1:
            return repr(r.choice(["", "x", "abc", "Hello World", "0",
                                  "7", " 7", "7.0", "a-b-c"]))
        if pick == 2:
            return str(r.choice([1.5, 2.25, 0.5]))
        if pick == 3:
            return r.choice(["true", "false", "null"])
        if pick == 4:
            return r.choice(["0", "-0", str(2 ** 62), str(-(2 ** 62) - 1),
                             str(3 * 2 ** 61)])
        return r.choice(["0", "1"])

    def expr(self, depth: int = 0) -> str:
        r = self.rng
        if self.calls and depth < 3 and r.random() < 0.2:
            return self.called(depth)
        if depth >= 3 or r.random() < 0.3:
            if r.random() < 0.5:
                return self.literal()
            return f"${r.choice(self.vars)}"
        pick = r.randrange(10)
        if pick <= 2:
            op = r.choice(["+", "-", "*", ".", "%", "==", "!=", "<",
                           "<=", ">", ">=", "===", "!==", "&&", "||"])
            return (f"({self.expr(depth + 1)} {op} "
                    f"{self.expr(depth + 1)})")
        if pick == 3:
            op = r.choice(["!", "-"])
            return f"{op}({self.expr(depth + 1)})"
        if pick == 4:
            return (f"({self.expr(depth + 1)} ? {self.expr(depth + 1)}"
                    f" : {self.expr(depth + 1)})")
        if pick == 5:
            items = ", ".join(self.expr(depth + 1)
                              for _ in range(r.randrange(1, 4)))
            return f"[{items}]"
        if pick == 6:
            name, arity = r.choice(self.PURE_CALLS)
            if self.typed and name == "count":
                return r.choice([
                    f"count(${r.choice(self.arrays)})",
                    f"implode('-', array_keys(${r.choice(self.arrays)}))",
                    f"in_array({self.expr(depth + 1)}, "
                    f"${r.choice(self.arrays)})",
                ])
            args = ", ".join(self.expr(depth + 1) for _ in range(arity))
            return f"{name}({args})"
        if pick == 7:
            key = r.choice(["q", "n", "z"])
            return f"param('{key}', {self.literal()})"
        if pick == 8 and self.funcs:
            name, arity = r.choice(self.funcs)
            args = ", ".join(self.expr(depth + 1) for _ in range(arity))
            return f"{name}({args})"
        if self.typed:
            read = f"${r.choice(self.arrays)}[{self.key(depth)}]"
            if r.random() < 0.3:  # constant keys, nested
                read = f"${r.choice(self.arrays)}['n'][{r.choice('01')}]"
            return read
        return f"${r.choice(self.vars)}[{self.expr(depth + 1)}]"

    def called(self, depth: int) -> str:
        """A call where generated code evaluates it in line: a user
        call's value, a request input with its default, a state or
        non-deterministic call — under ``&&`` / ``||``, in a ternary's
        arm, as an argument, under an operator or a unary one."""
        r = self.rng
        calls = [f"post_param('p', {self.literal()})",
                 f"cookie('sess', {self.literal()})",
                 f"param('n', {self.literal()})", self.nondet_expr()]
        if self.state_ops:
            calls += [f"kv_get('{r.choice(['k1', 'k2'])}')",
                      "reg_read('k1')"]
        if self.funcs:
            name, arity = r.choice(self.funcs)
            args = ", ".join(self.expr(depth + 1) for _ in range(arity))
            calls += [f"{name}({args})"] * 3
        call, other = r.choice(calls), self.expr(depth + 1)
        shape = r.randrange(6)
        if shape == 0:
            return f"({call} {r.choice(['&&', '||'])} {other})"
        if shape == 1:
            return f"({other} {r.choice(['&&', '||'])} {call})"
        if shape == 2:
            return f"({other} ? {call} : {self.expr(depth + 1)})"
        if shape == 3:
            return (f"{r.choice(['strlen', 'strval', 'intval'])}({call})"
                    f" . 'x'")
        if shape == 4:
            return f"{r.choice(['!', '-'])}{call}"
        return f"({call} {r.choice(['+', '.', '==', '<'])} {other})"

    def key(self, depth: int = 2) -> str:
        """An array key (typed mode): from a small pool, so reads find
        what writes stored, or per-request — which makes the array one
        per class of requests, and the next store to it a per-slot
        write."""
        r = self.rng
        pick = r.randrange(8)
        if pick <= 2:
            return r.choice(["0", "1", "2", "'k'", "'m'"])
        if pick >= 6 or pick == 3:
            return "param('q', 0)"
        if pick == 4:
            return f"${r.choice(self.vars)}"
        return self.expr(max(depth, 2))

    def nondet_expr(self) -> str:
        return self.rng.choice(
            ["rand(1, 100)", "time()", "mt_rand(0, 9)", "getpid()"])

    # -- statements -------------------------------------------------------

    def block(self, depth: int, budget: int) -> str:
        count = self.rng.randrange(1, max(2, budget))
        return " ".join(self.stmt(depth) for _ in range(count))

    def stmt(self, depth: int = 0) -> str:
        r = self.rng
        pick = r.randrange(12)
        if pick <= 2:
            var = r.choice(self.vars)
            op = r.choice(["=", "=", "=", "+=", ".=", "-=", "*=", "/="])
            if op != "=" and r.random() < 0.5:  # ``$v op= <literal>``
                return f"${var} {op} {self.literal()};"
            return f"${var} {op} {self.expr()};"
        if pick == 3:
            args = ", ".join(self.expr() for _ in range(r.randrange(1, 3)))
            return f"echo {args};"
        if pick == 4 and depth < 2:
            branches = f"if ({self.expr()}) {{ {self.block(depth + 1, 3)} }}"
            if r.random() < 0.5:
                branches += (f" elseif ({self.expr()})"
                             f" {{ {self.block(depth + 1, 2)} }}")
            if r.random() < 0.6:
                branches += f" else {{ {self.block(depth + 1, 2)} }}"
            return branches
        if pick == 5 and depth < 2:
            self.loop_id += 1
            i = f"i{self.loop_id}"
            bound = str(r.randrange(1, 5))
            prelude = ""
            if r.random() < 0.5:  # ``while ($i < $n)``: two variables
                n = f"n{self.loop_id}"
                prelude = (f"${n} = "
                           f"{r.choice([bound, MIN_Q])}; ")
                bound = f"${n}"
            body = self.block(depth + 1, 3)
            if r.random() < 0.4:
                body = f"{self.accumulator(i)} {body}"
            extra = ""
            if r.random() < 0.3:
                extra = r.choice([f"if (${i} == 2) {{ continue; }} ",
                                  f"if (${i} == 3) {{ break; }} "])
            return (f"{prelude}${i} = 0; while (${i} < {bound})"
                    f" {{ ${i} += 1; {extra}{body} }}")
        if pick == 6 and depth < 2:
            self.loop_id += 1
            k, v = f"k{self.loop_id}", f"v{self.loop_id}"
            self.vars.append(v)
            items = ", ".join(self.expr(2)
                              for _ in range(r.randrange(1, 4)))
            shape = r.choice([f"foreach ([{items}] as ${v})",
                              f"foreach ([{items}] as ${k} => ${v})"])
            return f"{shape} {{ {self.block(depth + 1, 2)} }}"
        if pick in (7, 11) and self.typed:
            return self.array_stmt()
        if pick == 7:
            var = r.choice(self.vars)
            return f"${var}[{self.expr(2)}] = {self.expr()};"
        if pick == 8:
            var = r.choice(self.vars)
            return f"${var} = {self.nondet_expr()};"
        if pick == 9 and self.state_ops:
            key = r.choice(["k1", "k2"])
            return r.choice([
                f"kv_set('{key}', {self.expr()});",
                f"${r.choice(self.vars)} = kv_get('{key}');",
                f"reg_write('{key}', {self.expr()});",
                f"${r.choice(self.vars)} = reg_read('{key}');",
            ])
        if pick == 10 and depth == 0 and len(self.funcs) < 3:
            return self.func_decl()
        var = r.choice(self.vars)
        return f"${var} = {self.expr()};"

    def accumulator(self, counter: str) -> str:
        """``compute_singleton``'s idiom, which runs in line in a
        generated region, with the accumulator's type flipped right
        after it: every trip takes the in-line path and the closure."""
        r = self.rng
        acc = f"${r.choice(self.vars)}"
        flip = r.choice([f"{acc} = {acc} / 2;", f"{acc} .= '';"])
        return (f"{acc} = ({acc} + ${counter} * {r.randrange(1, 10)} + 1)"
                f" % {r.choice([7, 9973, 2 ** 31 - 1])}; {flip}")

    def array_stmt(self) -> str:
        """A statement on an array variable (typed mode): element,
        nested-element and append stores, compound element stores,
        whole-array copies, loops over the array — and a branch on the
        request's own input, where a group's members part ways."""
        r = self.rng
        arr = r.choice(self.arrays)
        pick = r.randrange(10)
        if pick >= 8:
            return (f"if (intval(param('q', 0)) > {r.randrange(10)}) "
                    f"{{ ${arr}[] = 'hi'; }} else {{ echo 'lo'; }}")
        if pick <= 1:
            return f"${arr}[{self.key()}] = {self.expr()};"
        if pick == 2:
            return f"${arr}[] = {self.expr()};"
        if pick == 3:
            return f"${arr}['n'][{self.key()}] = {self.expr()};"
        if pick == 4:
            op = r.choice(["+=", ".="])
            return f"${arr}[{self.key()}] {op} {self.expr(2)};"
        if pick == 5:
            other = r.choice(self.arrays)
            return r.choice([
                f"${arr} = ${other};",
                f"${arr} = [{self.key()} => {self.expr(2)}, {self.expr(2)}];",
                f"${arr}[{self.key()}] = ${other};",
            ])
        self.loop_id += 1
        k, v = f"k{self.loop_id}", f"v{self.loop_id}"
        const = r.choice(["0", "1", "'n'"])
        body = r.choice([
            f"echo ${k}, '=', is_array(${v}) ? 'A' : ${v}, ';';",
            f"${r.choice(self.vars)} .= ${k};",
            f"if (${k} === {self.key()}) {{ break; }} echo ${k};",
            # The value mutated as an array, the subject reassigned, a
            # constant index and a literal with constant keys in the body.
            f"${v} = [${v}]; ${v}[] = ${k}; echo count(${v});",
            f"${arr} = ['r' => ${k}]; ${arr}[] = ${v}; echo ${k};",
            f"${r.choice(self.vars)} = ${arr}['k'] . ${k} . "
            f"${r.choice(self.arrays)}[{const}];",
            f"${r.choice(self.arrays)}[] = ['k' => ${k}, 'v' => "
            f"{self.expr(2)}];",
        ])
        return f"foreach (${arr} as ${k} => ${v}) {{ {body} }}"

    def func_decl(self) -> str:
        r = self.rng
        name = f"fn{len(self.funcs)}"
        arity = r.randrange(0, 3)
        params = [f"p{j}" for j in range(arity)]
        saved = self.vars
        saved_arrays = self.arrays
        self.vars = params or ["p"]
        uses_global = r.random() < 0.3
        prefix = ""
        if uses_global:
            target = r.choice(saved)
            self.vars = self.vars + [target]
            prefix = f"global ${target}; "
        if self.typed:
            # The caller's arrays are out of scope: a local one, or one
            # of the caller's brought in by ``global``.
            if r.random() < 0.5:
                self.arrays = [r.choice(saved_arrays)]
                prefix += f"global ${self.arrays[0]}; "
            else:
                self.arrays = ["loc"]
                prefix += (f"$loc = [{self.literal()}, "
                           f"'k' => param('q', {self.literal()})]; ")
        body = self.block(1, 3)
        ret = f" return {self.expr()};" if r.random() < 0.7 else ""
        self.vars = saved
        self.arrays = saved_arrays
        # Register *after* generating the body: no recursion.
        self.funcs.append((name, arity))
        return (f"function {name}({', '.join('$' + p for p in params)})"
                f" {{ {prefix}{body}{ret} }}")

    def program(self) -> str:
        statements = []
        if self.typed:
            # $ys starts empty, or as one array per class of requests.
            ys = self.rng.choice(
                ["[]", f"[param('q', 0) => [{self.literal()}]]"])
            statements.append(
                f"$xs = [{self.literal()}, 'k' => param('q', 1), "
                f"'n' => [{self.literal()}]]; $ys = {ys};")
        statements += [self.stmt(0)
                       for _ in range(self.rng.randrange(3, 9))]
        statements.append(f"echo 'tail:', ${self.rng.choice(self.vars)};")
        if self.typed:
            statements.append(
                "echo '|', implode(',', array_keys($xs)), '|', count($ys);")
        return " ".join(statements)


#: What a store answers a read with: arrays in their frozen form.
_CANNED_POOL = [None, 0, 1, 7, "", "str",
                freeze_value(PhpArray.from_list([1, 2])),
                freeze_value(PhpArray.from_dict({"k": 3})), True, 2.5]


def canned_results(rng: random.Random):
    """An infinite-ish list of canned state-op results both engines see
    in the same order, each as a store gives it."""
    return [rng.choice(_CANNED_POOL) for _ in range(64)]


def run_alone(engine, program, request, canned, nondets):
    """``request`` alone on ``engine``, answered from ``canned`` /
    ``nondets``: ``(RunOutput | None, intents, WeblangError | None)``."""
    return drive(engine.run(program, request),
                 [Canned(canned, nondets, rest=3)])


def test_engine_lockstep_fuzz():
    """~200 random programs: interp and compinterp agree on body, flow
    digest, instruction count, intent sequence, and errors."""
    failures = []
    for seed in range(ENGINE_CASES):
        rng = random.Random(1000 + seed)
        src = ProgramGen(rng).program()
        try:
            program = parse_program(src)
        except WeblangError:
            continue  # generator emitted something unparsable; rare
        request = Request(
            f"r{seed}", "fuzz.php",
            get={"q": str(rng.randrange(10)), "n": "5"},
            cookies={"sess": "s1"} if rng.random() < 0.5 else {},
        )
        canned = canned_results(rng)
        nondets = [rng.randrange(100) for _ in range(32)]
        ref = run_alone(Interpreter(record_flow=True), program, request,
                        canned, nondets)
        got = run_alone(CompInterpreter(record_flow=True), program,
                        request, canned, nondets)
        if repr(got[1]) != repr(ref[1]) or repr(got[2]) != repr(ref[2]):
            failures.append((seed, src, ref[2], got[2]))
            continue
        if ref[2] is None:
            ref_out, got_out = ref[0], got[0]
            if (got_out.bodies, got_out.flow_tag, got_out.steps) != \
                    (ref_out.bodies, ref_out.flow_tag, ref_out.steps):
                failures.append((seed, src,
                                 (ref_out.bodies, ref_out.steps),
                                 (got_out.bodies, got_out.steps)))
    assert not failures, failures[:3]


#: Typed programs with the call shapes, and how many of them at least
#: run to their end on the oracle, not stopped by an error (127 do; of
#: the untyped corpus, 28 of 200).
TYPED_CASES = 200
TYPED_COMPLETE = 120


def test_engine_lockstep_fuzz_typed_with_calls():
    """200 typed random programs whose expressions hold user calls,
    request inputs with defaults, and state and non-deterministic calls
    under ``&&`` / ``||``, ternaries, arguments, operators and unary
    operators: interp and compinterp agree on body, flow digest,
    instruction count, intent sequence and errors — and most run to
    their end, past their first array read."""
    failures, complete = [], 0
    for seed in range(TYPED_CASES):
        rng = random.Random(7000 + seed)
        src = ProgramGen(rng, typed=True, calls=True).program()
        program = parse_program(src)
        request = Request(
            f"r{seed}", "fuzz.php",
            get={"q": str(rng.randrange(10)), "n": "5"},
            post={"p": "x"} if rng.random() < 0.5 else {},
            cookies={"sess": "s1"} if rng.random() < 0.5 else {},
        )
        canned = canned_results(rng)
        nondets = [rng.randrange(100) for _ in range(32)]
        ref = run_alone(Interpreter(record_flow=True), program, request,
                        canned, nondets)
        got = run_alone(CompInterpreter(record_flow=True), program,
                        request, canned, nondets)
        complete += ref[2] is None
        if repr(got[1]) != repr(ref[1]) or repr(got[2]) != repr(ref[2]):
            failures.append((seed, src, ref[2], got[2]))
        elif ref[2] is None and (
                (got[0].bodies, got[0].flow_tag, got[0].steps)
                != (ref[0].bodies, ref[0].flow_tag, ref[0].steps)):
            failures.append((seed, src, (ref[0].bodies, ref[0].steps),
                             (got[0].bodies, got[0].steps)))
    assert not failures, failures[:3]
    assert complete >= TYPED_COMPLETE, complete


def drive_group(program, requests, canned, nondets, record_flow=False):
    """Run ``requests`` as one group; slot ``i`` is answered from
    ``canned[i]`` / ``nondets[i]`` exactly as :func:`run_alone` would
    answer it.  Returns ``(RunOutput | None, intents, exception |
    None)``."""
    return drive(
        compiled_for(program).run_group(requests, record_flow=record_flow),
        [Canned(replies, values, rest=3)
         for replies, values in zip(canned, nondets)], GROUP_ERRORS)


#: What an object may answer in the group corpus: the engine corpus's
#: pool plus frozen arrays, which thaw into a class's own array.
_GROUP_POOL = [
    None, 0, 1, 7, "", "str", [1, 2], {"k": 3}, True, 2.5, 1.0, "1",
    ("__phparray__", (("k", 3), (0, "x"))),
    ("__phparray__", (("k", 3.0), (0, "x"))),
    ("__phparray__", (("n", ("__phparray__", ((0, 1), (1, 2)))),)),
]


def test_group_lockstep_fuzz(monkeypatch):
    """Random programs x groups of 2-12 requests drawn, with
    replacement, from 1-4 profiles (inputs, replies, non-determinism):
    the group run is each slot's ``Interpreter`` run, or it does not
    complete.  Slots of one profile agree, so most multivalues have
    fewer classes than the group has slots; their replies are the very
    same objects for some slots and equal copies for others."""
    joins = splits = 0
    plain_join, plain_slots = Partition.join, simd._slots

    def counting_join(self, other):
        nonlocal joins
        joins += other is not self
        return plain_join(self, other)

    def counting_slots(value, state, private=False):
        nonlocal splits
        # A per-slot write to a class's array: the class has to split.
        splits += (private and type(value) is MultiValue
                   and len(value.values) < state.size
                   and any(type(held) is PhpArray for held in value.values))
        return plain_slots(value, state, private)

    monkeypatch.setattr(Partition, "join", counting_join)
    monkeypatch.setattr(simd, "_slots", counting_slots)
    failures = []
    completed = multivalent = shared = diverged = fell_back = 0
    for seed in range(GROUP_CASES):
        rng = random.Random(9000 + seed)
        src = ProgramGen(rng, typed=True).program()
        program = parse_program(src)
        # A sixth of the groups are of one profile (the univalent
        # extreme); the rest mix two to four.
        profiles = [
            ({"q": str(rng.randrange(10)), "n": "5"}, f"s{index}",
             [rng.choice(_GROUP_POOL) for _ in range(64)],
             [rng.randrange(100) for _ in range(32)])
            for index in range(1 if seed % 6 == 0 else rng.randrange(2, 5))
        ]
        requests, canned, nondets = [], [], []
        for slot in range(rng.randrange(2, 13)):
            get, cookie, replies, values = rng.choice(profiles)
            requests.append(Request(f"r{seed}-{slot}", "fuzz.php",
                                    get=dict(get), cookies={"sess": cookie}))
            canned.append(replies if rng.random() < 0.5
                          else copy.deepcopy(replies))
            nondets.append(values)
        refs = [run_alone(Interpreter(record_flow=True), program, request,
                          canned[slot], nondets[slot])
                for slot, request in enumerate(requests)]
        output, intents, error = drive_group(program, requests, canned,
                                             nondets)
        errored = any(ref[2] is not None for ref in refs)
        same_flow = not errored and len(
            {ref[0].flow_tag for ref in refs}) == 1
        if not same_flow:
            # Branching apart (or an application error) is never
            # papered over: no output may come back.
            if error is None:
                failures.append((seed, src, "completed a group that "
                                 "diverges or errors"))
            diverged += 1
            continue
        if isinstance(error, MultivalueFallback):
            fell_back += 1  # a retry, allowed where SIMD has no answer
            continue
        if error is not None:
            failures.append((seed, src, repr(error)))
            continue
        completed += 1
        multivalent += bool(output.multi_steps)
        shared += output.multi_classes < output.multi_slots
        # Each slot's intents, run alone, side by side: what the group
        # yields (every slot took one path, so the streams align).
        expected = ([ref[0].bodies[0] for ref in refs], refs[0][0].steps,
                    [stacked(step)
                     for step in zip(*(ref[1] for ref in refs), strict=True)])
        if ((output.bodies, output.steps) != expected[:2]
                or repr(intents) != repr(expected[2])):
            failures.append((seed, src, expected[:2],
                             (output.bodies, output.steps)))
        if not (output.multi_slots == output.multi_steps * len(requests)
                and output.multi_steps <= output.multi_classes
                <= output.multi_slots):
            failures.append((seed, src, "counters", output.multi_steps,
                             output.multi_classes, output.multi_slots))
    assert not failures, failures[:3]
    # The corpus must be worth its time: mostly groups that complete,
    # a good share of them on multivalues with fewer classes than slots
    # (1 < k < n is where the class machinery runs), partitions of
    # different reads joined, classes split by per-slot writes, and
    # some groups that must not complete.
    assert completed >= GROUP_CASES // 2, (completed, diverged, fell_back)
    assert multivalent >= completed // 3, (completed, multivalent)
    assert shared >= multivalent // 2, (multivalent, shared)
    assert joins >= 200 and splits >= 30, (joins, splits)
    assert diverged >= 10
    assert fell_back <= completed // 10, (completed, fell_back)


#: Every branch site of the language.  ``{q}`` is the request's input:
#: read with ``param`` the compiler proves each site pure (plain
#: closures), read with ``kv_get`` each condition or body holds a state
#: operation (generator closures).
BRANCH_KINDS_SRC = """
$q = intval({q});
if ($q == 0) {{ echo 'if'; }} elseif ($q == 1) {{ echo 'elseif'; }}
else {{ echo 'else'; }}
if ({q} > 3) {{ echo ' taken'; }}
$i = 0;
while ($i < intval({q}) + 2) {{
  $i += 1;
  if ($i == 2) {{ continue; }}
  if ($i == 4) {{ break; }}
  echo ' w', $i;
}}
while ({q} > 9) {{ echo 'never'; }}
foreach ([1, 2, 3, 4] as $k => $v) {{
  if ($v == intval({q})) {{ continue; }}
  if ($v == 4 && $q > 2) {{ break; }}
  echo ' f', $k;
}}
foreach ([] as $v) {{ echo 'never'; }}
echo ' ', ({q} > 2 ? 'big' : 'small');
echo ' ', (($q > 1 && {q} < 4) ? 'and' : 'nand');
echo ' ', (($q > 4 || {q} == 1) ? 'or' : 'nor');
"""


class _SpyDigest(interp_module.FlowDigest):
    """The reference digest, noting each branch it is told of."""

    seen: set = set()

    def update(self, kind, target):
        # The taken arm is what every target ends in: nid * 64 + arm
        # for ``if``, nid * 2 + arm for ternary and short circuit.
        arm = {"if": target % 64, "tern": target % 2,
               "sc": target % 2}.get(kind, 0)
        _SpyDigest.seen.add((kind, arm))
        super().update(kind, target)


@pytest.mark.parametrize("read", ["param('q', 0)", "kv_get('q')"])
def test_group_of_one_records_the_oracles_flow_tag(monkeypatch, read):
    """The engine folds each arm's pre-mixed constant into an int; the
    tag must be the one the oracle's ``FlowDigest`` computes, on runs
    that between them take every arm of every branch kind."""
    monkeypatch.setattr(interp_module, "FlowDigest", _SpyDigest)
    _SpyDigest.seen = set()
    program = parse_program(BRANCH_KINDS_SRC.format(q=read))
    tags = set()
    for q in range(6):
        request = Request(f"r{q}", "branches.php", get={"q": str(q)})
        canned = [str(q)] * 64  # what every kv_get('q') is answered
        ref, ref_intents, ref_error = run_alone(
            Interpreter(record_flow=True), program, request, canned, [])
        got, got_intents, got_error = drive_group(
            program, [request], [canned], [[]], record_flow=True)
        assert ref_error is None and got_error is None
        assert repr(got_intents) == repr(ref_intents)
        assert bool(got_intents) == read.startswith("kv_get")
        assert (got.bodies, got.steps) == (ref.bodies, ref.steps)
        assert got.flow_tag == ref.flow_tag
        tags.add(got.flow_tag)
    assert len(tags) == 6  # six inputs, six paths
    assert _SpyDigest.seen == {
        ("if", 0), ("if", 1), ("if", 2), ("loop", 0), ("loopx", 0),
        ("trips", 0), ("tern", 0), ("tern", 1), ("sc", 0), ("sc", 1),
    }


def _fuzz_app(seed: int):
    """A random application (no state ops beyond kv/reg: no schema
    needed) plus a request mix that repeats scripts for grouping."""
    rng = random.Random(5000 + seed)
    sources = {}
    for index in range(rng.randrange(1, 4)):
        gen = ProgramGen(rng)
        sources[f"s{index}.php"] = gen.program()
    app = Application.from_sources(f"fuzz{seed}", sources)
    requests = []
    for rid in range(rng.randrange(4, 14)):
        script = rng.choice(sorted(sources))
        requests.append(Request(
            f"q{rid}", script,
            get={"q": str(rng.randrange(4)), "n": str(rng.randrange(9))},
            cookies={"sess": f"u{rng.randrange(3)}"},
        ))
    return app, requests, rng


def test_audit_lockstep_fuzz():
    """Randomized recorded executions audited with every shipped
    backend: same verdict and bodies everywhere; interp and compinterp
    agree on every deterministic stat."""
    failures = []
    audited = 0
    for seed in range(AUDIT_CASES):
        app, requests, rng = _fuzz_app(seed)
        executor = Executor(
            app,
            scheduler=RandomScheduler(seed),
            max_concurrency=rng.choice([1, 2, 4]),
            nondet=NondetSource(seed=seed),
        )
        execution = executor.serve(requests)
        audits = {
            name: ssco_audit(app, execution.trace, execution.reports,
                             execution.initial_state, backend=name)
            for name in ("interp", "accinterp", "compinterp", "hybrid")
        }
        audited += 1
        ref = audits["interp"]
        comp = audits["compinterp"]
        acc = audits["accinterp"]
        for other_name, other in (("compinterp", comp),
                                  ("accinterp", acc),
                                  ("hybrid", audits["hybrid"])):
            if (other.accepted, other.reason) != (ref.accepted,
                                                  ref.reason):
                failures.append((seed, other_name, "verdict",
                                 ref.reason, other.reason, other.detail))
            elif other.produced != ref.produced:
                failures.append((seed, other_name, "bodies"))
        mismatched = [
            key for key in _DET_STATS
            if comp.stats.get(key) != ref.stats.get(key)
        ]
        if mismatched:
            failures.append((seed, "compinterp", "stats", mismatched))
    assert audited == AUDIT_CASES
    assert not failures, failures[:3]


def test_fuzz_generator_is_deterministic():
    """Same seed, same program — the corpus is reproducible."""
    first = ProgramGen(random.Random(42)).program()
    second = ProgramGen(random.Random(42)).program()
    assert first == second


@pytest.mark.parametrize("seed", [0, 17, 101])
def test_fuzz_programs_exercise_real_constructs(seed):
    src = ProgramGen(random.Random(seed)).program()
    assert parse_program(src) is not None
    assert "echo" in src
