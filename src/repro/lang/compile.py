"""The compiled weblang engine, univalent and multivalent (acc-PHP analog).

The plain interpreter (:mod:`repro.lang.interp`) re-dispatches on node
type at every step and builds a Python generator frame for every AST
node it walks.  The same few programs run thousands of times — served
once per request, re-executed at audit time — so this module compiles a
:class:`~repro.lang.ast.Program` once into generated Python source, one
function a body (:mod:`repro.lang.regions` makes it, statements and
expressions alike; :mod:`repro.lang.simd` does the per-class work).
The server runs it one request at a time — a group of one — with the
control-flow digest on; at audit time it runs a whole control-flow group
at a time (§3.1, §4.2-4.3): an instruction whose operands are identical
across the group executes once (**univalent**); one whose operand *is* a
:class:`~repro.multivalue.MultiValue` executes once per class of
requests that agree (**multivalent**, Figure 2); a branch, loop,
ternary, left operand of ``&&`` / ``||`` or foreach trip count that
differs across the group is a **divergence**
(:class:`~repro.common.errors.DivergenceError`, a verdict or a
per-request retry), and what SIMD execution does not support raises
:class:`~repro.common.errors.MultivalueFallback` (always a retry).

:meth:`CompiledProgram.run_group` is a generator that speaks the
oracle's intents with one operand per slot and returns
:class:`RunOutput`.  What stays here is what is known before a run:
which user functions and nodes may yield an intent (the purity pass,
:class:`repro.lang.analysis.Purity`), **constant subtrees** folded with
the instruction count the folded nodes would have booked (a fold that
would raise is not folded), constant array literals built once (each
evaluation a copy-on-write handle), the index-assignment walkers, and
the compile cache.

**Bit-identity contract.**  For every slot, execution is observationally
identical to :class:`~repro.lang.interp.Interpreter` on that slot's
request — same body, same ``steps``, same intent operands in the same
order, same control-flow digest, same error behaviour.  The
differential fuzz tests enforce this.

**Compile cache.**  :func:`compiled_for` memoizes per ``(program,
dialect)`` keyed by object identity with a weakref guard, so every
chunk of a run reuses the same generated functions; they never leave
the process.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.digest import fnv1a
from repro.common.errors import WeblangError
from repro.lang.ast import (
    ArrayLit,
    BinOp,
    Call,
    GlobalDecl,
    IndexAssign,
    Lit,
    Node,
    Program,
    UnOp,
)
from repro.lang import regions
from repro.lang.analysis import Purity, call_kind, nodes
from repro.lang.builtins import PURE_BUILTINS
from repro.lang.interp import (
    RunOutput,
    _BreakSignal,
    _ContinueSignal,
)
from repro.lang.regions import _NEXT
from repro.lang.simd import (
    _APPEND,
    _assign_cell,
    _expand,
    _render,
    _State,
)
from repro.lang.values import PhpArray, binop, compound, unop
from repro.multivalue.multivalue import MultiValue
from repro.trace.events import Request


@dataclass(eq=False, slots=True)
class _CompiledFunc:
    """One compiled user function.  ``run`` — its body's generated
    function — is filled in after every function object exists, so a
    call compiled before its callee reads it at call time."""

    name: str
    params: list[str]
    pure: bool
    run: Callable | None = None


class _Compiler:
    """Compiles one program for one dialect (db/kv/session names)."""

    def __init__(self, program: Program, db_name: str, kv_name: str,
                 session_cookie: str):
        self.program = program
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        self.funcs: dict[str, _CompiledFunc] = {}
        self.purity = Purity(program)  # which functions may yield
        #: id(node) -> (node, what :meth:`const` / :meth:`literal` /
        #: regions.py's walk found of it).
        self.consts: dict[int, tuple] = {}
        self.literals: dict[int, tuple] = {}
        self.walks: dict[int, tuple] = {}
        #: The globals the scope being compiled shares with its calls:
        #: those a function declares ``global``, at top level those of
        #: every function.
        self.shared: frozenset[str] = frozenset()

    # -- driver -------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        program = self.program
        for name, decl in program.functions.items():
            self.funcs[name] = _CompiledFunc(
                name, decl.params, pure=self.purity.function_pure(name))
        shared: set[str] = set()
        for name, decl in program.functions.items():
            func = self.funcs[name]
            self.shared = frozenset(var for item in nodes(decl.body)
                                    if type(item) is GlobalDecl
                                    for var in item.names)
            shared |= self.shared
            ((pure, func.run),) = regions.region(self, decl.body, False,
                                                 whole=True)
            # Callers compiled before this body bound ``func.pure``: a
            # body that disagrees would turn their plain call into a
            # ``yield from``, or the reverse.
            if pure != func.pure:
                raise AssertionError(
                    f"{name}(): purity pass says pure={func.pure}, "
                    f"compiled body pure={pure}")
        self.shared = frozenset(shared)
        return CompiledProgram(program.name,
                               regions.region(self, program.body, True))

    # -- what is known before a run ----------------------------------------

    def const(self, node: Node) -> tuple | None:
        """``(value, steps)`` of a subtree that folds at compile time —
        a literal, an operator on constants that does not raise — with
        the instruction count its nodes would have booked."""
        key = id(node)
        if key not in self.consts:  # the node is kept: its id stays its own
            self.consts[key] = (node, self._fold(node))
        return self.consts[key][1]

    def _fold(self, node: Node) -> tuple | None:
        kind = type(node)
        if kind is Lit:
            return node.value, 1
        if kind is UnOp:
            operands, apply = [self.const(node.operand)], unop(node.op)
        elif kind is BinOp and node.op not in ("&&", "||"):
            operands = [self.const(node.left), self.const(node.right)]
            apply = binop(node.op)
        else:
            return None
        if None in operands:
            return None
        try:
            value = apply(*[value for value, _ in operands])
        except WeblangError:
            return None  # fold would raise: keep it a runtime error
        return value, 1 + sum(steps for _, steps in operands)

    def const_key(self, key: Node) -> tuple | None:
        """``(normalised value, steps)`` of an int / str constant key."""
        return _const_key(self.const(key))

    def cells(self, node: ArrayLit) -> tuple | None:
        """Where each value of a literal whose keys are all int / str
        constants or ``[]`` lands — known now, and no value can make the
        array a list — as ``(normalised keys, next index, steps of the
        literal and its keys)``; ``None`` for any other literal."""
        keys = [_APPEND if key is None else self.const_key(key)
                for key, _ in node.items]
        if None in keys:
            return None
        norms, top = [], 0
        for key in keys:
            norm = top if key is _APPEND else key[0]
            if type(norm) is int and norm >= top:
                top = norm + 1
            norms.append(norm)
        return norms, top, 1 + sum(key[1] for key in keys
                                   if key is not _APPEND)

    def literal(self, node: ArrayLit) -> tuple | None:
        """``(array, steps)`` of a literal of constants, built once: each
        evaluation is a copy-on-write handle on it."""
        key = id(node)
        if key not in self.literals:
            cells = self.cells(node)
            held = [None] if cells is None else [
                self.const(value) or (self.literal(value)
                                      if type(value) is ArrayLit else None)
                for _, value in node.items]
            built = None
            if None not in held:
                norms, top, steps = cells
                built = (PhpArray.from_data(dict(zip(
                    norms, [value for value, _ in held])), top),
                    steps + sum(held_steps for _, held_steps in held))
            self.literals[key] = (node, built)
        return self.literals[key][1]

    def builtin(self, node: Call) -> Callable | None:
        """The pure built-in ``node`` calls, if it calls one."""
        if call_kind(node.name, self.funcs) != "pure":
            return None
        return PURE_BUILTINS[node.name]

    # -- index assignments -------------------------------------------------

    def _index_parts(self, stmt: IndexAssign) -> tuple[Callable, ...]:
        """``root``, ``step`` and ``finish`` of an index assignment: the
        variable's array (made, or expanded, as it has to be), a
        container ready for a key, and the store at the end of the
        path (§4.3's container rules)."""
        name = stmt.name
        apply = compound(stmt.op) if stmt.op else None
        not_array = f"cannot index non-array variable ${name}"

        def root(env, state):
            container = env.get(name)
            if container is None:
                container = env[name] = PhpArray()
            elif type(container) is MultiValue:
                for class_root in container.values:
                    if not isinstance(class_root, PhpArray):
                        raise WeblangError(not_array)
                # The stores below are per slot: a class's array splits.
                env[name], container = _expand(container, (), state)
            elif not isinstance(container, PhpArray):
                raise WeblangError(not_array)
            return container

        def step(env, state, container, walked, held, key):
            """``container`` ready for ``key``: expanded if it has to be."""
            if type(key) is MultiValue and type(container) is not list:
                env[name], container = _expand(env.get(name), walked, state,
                                               held)
            return container

        def finish(env, state, container, walked, held, key, value):
            if key is _APPEND and apply is not None:
                raise WeblangError("compound assignment to append slot")
            container = step(env, state, container, walked, held, key)
            _assign_cell(container, key, value, apply, state)
            if type(container) is list:
                env[name] = state.merge(list(env.get(name).values))

        return root, step, finish


def _const_key(const: tuple | None) -> tuple | None:
    """A constant's ``(normalised key, steps)`` if an int / str."""
    if const is None or type(const[0]) not in (int, str):
        return None
    return PhpArray._norm_key(const[0]), const[1]


class CompiledProgram:
    """One compiled script: :meth:`run_group` executes a control-flow
    group, a request alone as a group of one."""

    __slots__ = ("name", "_parts", "_flow_seed")

    def __init__(self, name: str, parts: list[tuple[bool, Callable]]):
        self.name = name
        #: The script body's generated functions, run in order while
        #: each falls through (a top-level ``return`` ends the script).
        self._parts = parts
        #: Where every run's control-flow digest starts: the script name
        #: folded in (``FlowDigest().update_str(name)``).
        self._flow_seed = fnv1a(name.encode())

    def run_group(self, requests: list[Request], collapse: bool = True,
                  record_flow: bool = False):
        """Superposed execution of ``requests`` (all share control flow).

        Generator: yields the intents of :mod:`repro.lang.interp` with
        one operand per slot (the driver sends back one result per
        slot), returns :class:`RunOutput`.  Raises
        :class:`DivergenceError` if control flow differs across the
        group, :class:`MultivalueFallback` on unsupported SIMD cases and
        :class:`WeblangError` when any member's execution errors.
        """
        state = _State(list(requests),
                       self._flow_seed if record_flow else None, collapse)
        env = state.globals  # the top-level frame is the globals dict
        try:
            for pure, part in self._parts:
                if (part(env, state) if pure
                        else (yield from part(env, state))) is not _NEXT:
                    break
        except (_BreakSignal, _ContinueSignal):
            raise WeblangError("break/continue outside loop") from None
        if state.in_tx:
            raise WeblangError("script ended with an open transaction")
        flow_tag = None if state.flow is None else f"{state.flow:016x}"
        return RunOutput(_render(state), state.steps, state.multi_steps,
                         flow_tag, state.multi_steps * state.size,
                         state.multi_classes)


def compile_program(program: Program, db_name: str = "db:main",
                    kv_name: str = "kv:apc",
                    session_cookie: str = "sess") -> CompiledProgram:
    """Compile ``program`` (uncached); see :func:`compiled_for`."""
    return _Compiler(program, db_name, kv_name, session_cookie).compile()


#: (id(program), dialect) -> (weakref-to-program, CompiledProgram).  The
#: weakref guards against id() reuse after a program is collected.
_CACHE: dict[tuple, tuple[Callable, CompiledProgram]] = {}

#: Programs compiled by this process (cache misses), for benchmarks and
#: the cache tests.
_cache_misses = 0


def compiled_for(program: Program, db_name: str = "db:main",
                 kv_name: str = "kv:apc",
                 session_cookie: str = "sess") -> CompiledProgram:
    """The compiled form of ``program``, compiled on first use.

    Keyed by program identity plus dialect: every later call in this
    process — including from pool worker processes after they parse
    the application's sources once — reuses the generated functions.
    Nothing is stored on the program object itself.
    """
    global _cache_misses
    key = (id(program), db_name, kv_name, session_cookie)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    compiled = compile_program(program, db_name, kv_name, session_cookie)
    _cache_misses += 1
    try:
        ref = weakref.ref(program,
                          lambda _ref, _key=key: _CACHE.pop(_key, None))
    except TypeError:  # pragma: no cover - Program is weakref-able
        ref = (lambda _program=program: _program)
    _CACHE[key] = (ref, compiled)
    return compiled


def clear_cache() -> None:
    """Drop all compiled programs (benchmarks use this to measure the
    compile-time split)."""
    global _cache_misses
    _CACHE.clear()
    _cache_misses = 0


def cache_info() -> dict[str, int]:
    return {"entries": len(_CACHE), "misses": _cache_misses}


class CompInterpreter:
    """The engine for one dialect: compiles on first use (cached), runs
    a group (:meth:`run_group`) or — like
    :class:`~repro.lang.interp.Interpreter` — one request (:meth:`run`)."""

    def __init__(self, db_name: str = "db:main", kv_name: str = "kv:apc",
                 session_cookie: str = "sess", record_flow: bool = True,
                 collapse_enabled: bool = True):
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        self.record_flow = record_flow
        self.collapse_enabled = collapse_enabled

    def _compiled(self, program: Program) -> CompiledProgram:
        return compiled_for(program, self.db_name, self.kv_name,
                            self.session_cookie)

    def run(self, program: Program, request: Request):
        """``request`` as a group of one, collapse always on, whatever
        :attr:`collapse_enabled` says: so it never makes a multivalue,
        nor raises :class:`MultivalueFallback` (demotions run this)."""
        return self._compiled(program).run_group(
            [request], record_flow=self.record_flow)

    def run_group(self, program: Program, requests: list[Request]):
        return self._compiled(program).run_group(
            requests, self.collapse_enabled, self.record_flow)
