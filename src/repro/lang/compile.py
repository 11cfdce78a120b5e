"""The compiled weblang engine, univalent and multivalent (acc-PHP analog).

The plain interpreter (:mod:`repro.lang.interp`) re-dispatches on node
type at every step and builds a Python generator frame for every AST
node it walks.  The same few programs run thousands of times — served
once per request, re-executed at audit time — so this module compiles a
:class:`~repro.lang.ast.Program` once into a tree of pre-bound Python
closures.  The server runs them one request at a time with the
control-flow digest on (:meth:`CompiledProgram.run`); at audit time they
run a whole control-flow group at a time (§3.1, §4.2-4.3):

* instructions whose operands are identical across the group execute
  once (**univalent** execution), at the cost of one closure call;
* a closure whose operand *is* a :class:`~repro.multivalue.MultiValue`
  executes componentwise (**multivalent**) — once per class of requests
  that agree on the operands, not once per request — with scalar
  expansion of univalue operands and collapse of uniform results
  (Figure 2); request inputs, simulated object reads and recorded
  non-determinism are the only sources of multivalues, and where the
  classes are made;
* a branch, loop, ternary, left operand of ``&&``/``||`` or foreach
  trip count that differs across the group is a **divergence** (the
  grouping was wrong):
  :class:`~repro.common.errors.DivergenceError`, which the driver turns
  into a verdict (strict SSCO) or a per-request retry; cases SIMD
  execution does not support raise
  :class:`~repro.common.errors.MultivalueFallback` (always a retry).

:meth:`CompiledProgram.run_group` is a generator: state operations yield
:class:`GroupStateOpIntent` (per-request operands — §3.3's "for all rid
in the group" loop lives in the driver), non-deterministic built-ins
:class:`GroupNondetIntent`, outbound requests
:class:`GroupExternalIntent`; it returns :class:`GroupRunOutput`.
:meth:`CompiledProgram.run` is the same code run as a group of one
behind an adapter with the :meth:`Interpreter.run` contract, so the
executor's drivers and ``execute_one`` (demotions) drive it unchanged.

How the closures are built:

* **pure subtrees** — expressions and statements that can never perform
  a shared-object operation, a non-deterministic built-in, or an
  external call — compile to plain ``fn(env, state)`` closures: no
  generator frames at all, which is where most of the win comes from.
  Function-level purity comes from the static analyzer
  (:func:`repro.lang.analysis.analyze_program`);
* **impure subtrees** compile to generator closures that ``yield`` the
  group intents; both variants of a node share the helpers that do the
  per-class work (:mod:`repro.lang.simd`, with the run's state and the
  intents);
* **constant subtrees** fold at compile time, preserving the exact
  instruction count the folded nodes would have contributed;
* **leaf operands fuse** into the node above them: an operator or
  ``$x op= <const>`` whose operand is a constant or a dict-frame
  variable reads it in line, booking the step (and, for a multivalue,
  the multivalent step) its own closure would have; two operands of
  exactly the operator's type take its plain form
  (:data:`~repro.lang.values.EXACT_OPS`) before the table entry, and a
  condition that is a bool skips ``_truth``.  So do a pure built-in
  call of one to three arguments (a generated function,
  :func:`regions.call`), the copy-read of a dict-frame variable, and
  ``$v[<int / str constant>]`` on one: each is one closure that books
  what its closure tree booked and hands a multivalue to that tree's
  helper;
* **array literals** with int / str constant keys (or ``[]``) place
  their values at keys normalised at compile time; one whose values
  are constants or such literals too is built once, and evaluates to a
  copy-on-write handle on that array;
* **pure regions** — a pure block, and a pure ``while`` with its body —
  are one generated Python function each (:mod:`repro.lang.regions`):
  a statement is a call to its closure or, in a dict frame, an
  exact-int / str assignment or loop condition run as a Python
  expression behind a type guard that falls back to the closure;
* **branch sites** record control flow (§4.3) without a call: what
  :meth:`FlowDigest.update(kind, target)
  <repro.common.digest.FlowDigest.update>` would xor in is a constant
  per arm (:func:`~repro.common.digest.branch_mix`), bound when the arm
  is compiled and folded into ``state.flow`` — an int, ``None`` when not
  recording — in line;
* names resolve at compile time: built-ins are pre-bound, user functions
  bound to their compiled bodies, and scopes that never execute a
  ``global`` declaration use a plain dict frame instead of
  :class:`~repro.lang.interp._Env`.

**Bit-identity contract.**  For every slot, execution is observationally
identical to :class:`~repro.lang.interp.Interpreter` on that slot's
request — same body, same ``steps``, same intent operands in the same
order, same control-flow digest (a group of one records it), same error
behaviour (a constant fold that would raise is *not* folded).  The
differential fuzz tests enforce this.

**Compile cache.**  :func:`compiled_for` memoizes per ``(program,
dialect)`` keyed by object identity with a weakref guard, so every
chunk of a run — and every chunk a pool worker runs after parsing the
application's sources once — reuses the same closures; they never
leave the process.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from functools import partial

from repro.common.digest import _FNV_PRIME, _MASK, branch_mix, fnv1a
from repro.common.errors import MultivalueFallback, WeblangError
from repro.lang.ast import (
    ArrayLit,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Echo,
    ExprStmt,
    Foreach,
    GlobalDecl,
    If,
    Index,
    IndexAssign,
    Lit,
    Node,
    Program,
    Return,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.lang import regions
from repro.lang.analysis import analyze_program
from repro.lang.builtins import (
    EXTERNAL_BUILTINS,
    NONDET_BUILTINS,
    PURE_BUILTINS,
    STATE_BUILTINS,
)
from repro.lang.interp import (
    _MAX_CALL_DEPTH,
    REQUEST_INPUTS,
    ExternalIntent,
    Interpreter,
    NondetIntent,
    RunOutput,
    StateOpIntent,
    _BreakSignal,
    _ContinueSignal,
    _Env,
    _ReturnSignal,
)
from repro.lang.simd import (
    _APPEND,
    GroupExternalIntent,
    GroupNondetIntent,
    GroupRunOutput,
    GroupStateOpIntent,
    _add_item,
    _assign_cell,
    _binop,
    _call_builtin,
    _copy_value,
    _descend,
    _expand,
    _foreach_items,
    _frozen,
    _index,
    _literal,
    _merged_read,
    _merged_replies,
    _multi_binop,
    _multi_text,
    _no_key,
    _release,
    _render,
    _rows,
    _slots,
    _State,
    _strs,
    _truth,
    _unop,
)
from repro.lang.values import (
    PhpArray,
    binop,
    compound,
    exact_op,
    thaw_value,
    to_str,
    truthy,
    unop,
)
from repro.multivalue.multivalue import MultiValue
from repro.trace.events import Request


class _CompiledFunc:
    """One compiled user function.  ``run`` is filled in after every
    function object exists, so mutually recursive call sites can bind
    the object eagerly and read ``.run`` at call time."""

    __slots__ = ("name", "params", "pure", "use_env", "run")

    def __init__(self, name: str, params: list[str], pure: bool,
                 use_env: bool):
        self.name = name
        self.params = params
        self.pure = pure
        self.use_env = use_env
        self.run: Callable | None = None


class _Compiler:
    """Compiles one program for one dialect (db/kv/session names)."""

    def __init__(self, program: Program, db_name: str, kv_name: str,
                 session_cookie: str):
        self.program = program
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        #: Whether the scope being compiled needs the _Env indirection
        #: (it executes a ``global`` declaration somewhere).
        self.use_env = False
        self.funcs: dict[str, _CompiledFunc] = {}
        #: Function-level effects come from the static analyzer — the
        #: single source of truth for purity (repro.lang.analysis).  The
        #: report is as large as the closures it helps build and only
        #: needed while building them, so it is not the cached one.
        self.analysis = analyze_program(program, db_name, kv_name,
                                        session_cookie)
        #: A variable read or a constant is the same closure wherever
        #: it occurs: (name, use_env or "copy") / (type, repr, steps).
        self.leaves: dict[tuple, tuple] = {}
        #: A constant array literal's closure -> (its array, steps).
        self.literals: dict[Callable, tuple[PhpArray, int]] = {}

    # -- driver -------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        program = self.program
        for name, decl in program.functions.items():
            self.funcs[name] = _CompiledFunc(
                name, decl.params,
                pure=self.analysis.function_pure(name),
                use_env=_scope_uses_global(decl.body),
            )
        for name, decl in program.functions.items():
            func = self.funcs[name]
            self.use_env = func.use_env
            pure, fn = self._compile_block(decl.body)
            # The analyzer's effect fixpoint and the compiled block agree
            # on purity; the compiled block stays authoritative for the
            # run closure.
            func.pure = pure
            func.run = fn
        self.use_env = False  # top level: vars *are* globals
        body_pure, body_fn = self._compile_block(program.body)
        return CompiledProgram(program.name, body_pure, body_fn)

    def _accessors(self, name: str) -> tuple[Callable, Callable]:
        """``load(env)`` / ``store(env, value)`` of variable ``name`` in
        the scope being compiled (statements off the hot path use them;
        hot ones inline the frame access)."""
        if self.use_env:
            return (lambda env: env.lookup(name),
                    lambda env, value: env.store(name, value))

        def store(env, value):
            env[name] = value

        return (lambda env: env.get(name)), store

    def _frame_var(self, node: Node) -> str | None:
        """The name ``node`` reads when it is a variable read an operator
        can take in line (``env.get(name)`` on a dict frame), else
        ``None``.  The fused closure then books the read as the ``Var``
        closure would: one step, plus a multivalent step when the value
        is a multivalue."""
        if type(node) is Var and not self.use_env:
            return node.name
        return None

    # -- blocks and statements ------------------------------------------------

    def _compile_block(
        self, stmts: list[Node],
        compiled: list[tuple[bool, Callable]] | None = None,
    ) -> tuple[bool, Callable]:
        if compiled is None:
            compiled = [self._compile_stmt(stmt) for stmt in stmts]
        if all(pure for pure, _ in compiled):
            return True, regions.block(stmts, [fn for _, fn in compiled],
                                       not self.use_env)

        def run_gen(env, state, _items=compiled):
            for pure, fn in _items:
                if pure:
                    fn(env, state)
                else:
                    yield from fn(env, state)

        return False, run_gen

    def _compile_stmt(self, stmt: Node) -> tuple[bool, Callable]:
        kind = type(stmt)
        if kind is Assign:
            return self._compile_assign(stmt)
        if kind is ExprStmt:
            pure, fn, _ = self._compile_expr(stmt.expr)
            if pure:

                def run(env, state):
                    state.steps += 1
                    fn(env, state)

                return True, run

            def run_gen(env, state):
                state.steps += 1
                yield from fn(env, state)

            return False, run_gen
        if kind is Echo:
            return self._compile_echo(stmt)
        if kind is If:
            return self._compile_if(stmt)
        if kind is While:
            return self._compile_while(stmt)
        if kind is Foreach:
            return self._compile_foreach(stmt)
        if kind is IndexAssign:
            return self._compile_index_assign(stmt)
        if kind is Return:
            return self._compile_return(stmt)
        if kind is GlobalDecl:
            names = tuple(stmt.names)
            if self.use_env:

                def run(env, state):
                    state.steps += 1
                    env.global_names.update(names)

                return True, run

            # Dict-mode scopes only reach here at top level, where the
            # frame *is* the globals dict: the declaration is a no-op
            # beyond its instruction count.
            def run(env, state):
                state.steps += 1

            return True, run
        if kind is Break:

            def run(env, state):
                state.steps += 1
                raise _BreakSignal()

            return True, run
        if kind is Continue:

            def run(env, state):
                state.steps += 1
                raise _ContinueSignal()

            return True, run

        def run(env, state, _name=kind.__name__):
            state.steps += 1
            raise WeblangError(f"unknown statement {_name}")

        return True, run

    def _compile_assign(self, stmt: Assign) -> tuple[bool, Callable]:
        pure, fn, const = self._compile_expr_copy(stmt.expr)
        name = stmt.name
        op = stmt.op
        apply = compound(op)  # unused for a plain ``=``
        use_env = self.use_env
        if pure and op and not use_env:
            # The plain form is the table entry's, so only where the
            # compound operator *is* the entry (``compound`` makes a
            # hand-built ``==`` compound raise).
            plain_op = op if apply is binop(op) else ""
            if const is not None:
                # ``$i += 1``: the constant needs no call, and its
                # instruction count rides on this statement's.
                value, steps = const[0], const[1] + 1
                kind, fast = exact_op(plain_op, value)

                def run(env, state):
                    state.steps += steps
                    current = env.get(name)
                    if type(current) is kind:
                        env[name] = fast(current, value)
                    elif type(current) is MultiValue:
                        env[name] = _multi_binop(apply, current, value,
                                                 state)
                    else:
                        env[name] = apply(current, value)

                return True, run

            kind, fast = exact_op(plain_op)

            def run(env, state):
                state.steps += 1
                value = fn(env, state)
                current = env.get(name)
                if type(current) is kind and type(value) is kind:
                    env[name] = fast(current, value)
                elif type(current) is MultiValue \
                        or type(value) is MultiValue:
                    env[name] = _multi_binop(apply, current, value, state)
                else:
                    env[name] = apply(current, value)

            return True, run
        if pure:
            if not op:
                if use_env:

                    def run(env, state):
                        state.steps += 1
                        env.store(name, fn(env, state))

                else:

                    def run(env, state):
                        state.steps += 1
                        env[name] = fn(env, state)

                return True, run

            def run(env, state):
                state.steps += 1
                value = fn(env, state)
                env.store(name, _binop(apply, env.lookup(name), value, state))

            return True, run
        load, store = self._accessors(name)

        def run_gen(env, state):
            state.steps += 1
            value = yield from fn(env, state)
            if op:
                value = _binop(apply, load(env), value, state)
            store(env, value)

        return False, run_gen

    def _compile_echo(self, stmt: Echo) -> tuple[bool, Callable]:
        compiled = [self._compile_expr(expr) for expr in stmt.exprs]
        if all(pure for pure, _, _ in compiled):
            fns = [fn for _, fn, _ in compiled]

            def run(env, state):
                state.steps += 1
                append = state.output.append
                for fn in fns:
                    value = fn(env, state)
                    append(to_str(value) if type(value) is not MultiValue
                           else _multi_text(value, state))

            return True, run
        items = [(pure, fn) for pure, fn, _ in compiled]

        def run_gen(env, state):
            state.steps += 1
            append = state.output.append
            for pure, fn in items:
                value = (fn(env, state) if pure
                         else (yield from fn(env, state)))
                append(to_str(value) if type(value) is not MultiValue
                       else _multi_text(value, state))

        return False, run_gen

    def _compile_if(self, stmt: If) -> tuple[bool, Callable]:
        # The digest target of arm ``index`` is nid * 64 + index + 1,
        # of the else arm (or of taking none) nid * 64.
        nid64 = stmt.nid * 64
        branches = [
            (self._compile_expr(cond), self._compile_block(body),
             branch_mix("if", nid64 + index + 1))
            for index, (cond, body) in enumerate(stmt.branches)
        ]
        else_c = (self._compile_block(stmt.else_body)
                  if stmt.else_body is not None else None)
        else_mix = branch_mix("if", nid64)
        where = f"if#{stmt.nid}"
        all_pure = all(
            cond[0] and body[0] for cond, body, _ in branches
        ) and (else_c is None or else_c[0])
        if all_pure:
            plain = [(cond[1], body[1], mix) for cond, body, mix in branches]
            else_fn = else_c[1] if else_c is not None else None

            def run(env, state):
                state.steps += 1
                body_fn = else_fn
                mix = else_mix
                for cond_fn, branch_fn, arm_mix in plain:
                    cond = cond_fn(env, state)
                    if cond is True or (cond is not False
                                        and _truth(cond, where)):
                        body_fn = branch_fn
                        mix = arm_mix
                        break
                flow = state.flow
                if flow is not None:
                    state.flow = ((flow ^ mix) * _FNV_PRIME) & _MASK
                if body_fn is not None:
                    body_fn(env, state)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            body = else_c
            mix = else_mix
            for cond, branch_body, arm_mix in branches:
                cond_pure, cond_fn, _ = cond
                value = (cond_fn(env, state) if cond_pure
                         else (yield from cond_fn(env, state)))
                if value is True or (value is not False
                                     and _truth(value, where)):
                    body = branch_body
                    mix = arm_mix
                    break
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ mix) * _FNV_PRIME) & _MASK
            if body is not None:
                body_pure, body_fn = body
                if body_pure:
                    body_fn(env, state)
                else:
                    yield from body_fn(env, state)

        return False, run_gen

    def _compile_while(self, stmt: While) -> tuple[bool, Callable]:
        cond_pure, cond_fn, _ = self._compile_expr(stmt.cond)
        compiled = [self._compile_stmt(node) for node in stmt.body]
        enter = branch_mix("loop", stmt.nid)
        leave = branch_mix("loopx", stmt.nid)
        where = f"while#{stmt.nid}"
        if cond_pure and all(pure for pure, _ in compiled):
            return True, regions.loop(stmt, cond_fn,
                                      [fn for _, fn in compiled], enter,
                                      leave, where, not self.use_env)
        body_pure, body_fn = self._compile_block(stmt.body, compiled)

        def run_gen(env, state):
            state.steps += 1
            while True:
                value = (cond_fn(env, state) if cond_pure
                         else (yield from cond_fn(env, state)))
                if value is not True and (value is False
                                          or not _truth(value, where)):
                    break
                flow = state.flow
                if flow is not None:
                    state.flow = ((flow ^ enter) * _FNV_PRIME) & _MASK
                try:
                    if body_pure:
                        body_fn(env, state)
                    else:
                        yield from body_fn(env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ leave) * _FNV_PRIME) & _MASK

        return False, run_gen

    def _compile_foreach(self, stmt: Foreach) -> tuple[bool, Callable]:
        subj_pure, subj_fn, _ = self._compile_expr(stmt.subject)
        body_pure, body_fn = self._compile_block(stmt.body)
        enter = branch_mix("loop", stmt.nid)
        leave = branch_mix("loopx", stmt.nid)
        where = f"foreach#{stmt.nid}"
        key_var = stmt.key_var
        val_var = stmt.val_var
        use_env = self.use_env

        def bind(env, state, key, value):
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ enter) * _FNV_PRIME) & _MASK
            kind = type(value)
            if kind is PhpArray or kind is MultiValue:
                value = _copy_value(value)
            if use_env:
                if key_var is not None:
                    env.store(key_var, key)
                env.store(val_var, value)
            else:
                if key_var is not None:
                    env[key_var] = key
                env[val_var] = value

        if subj_pure and body_pure:

            def run(env, state):
                state.steps += 1
                subject = subj_fn(env, state)
                for key, value in _foreach_items(subject, state, where):
                    bind(env, state, key, value)
                    try:
                        body_fn(env, state)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        continue
                flow = state.flow
                if flow is not None:
                    state.flow = ((flow ^ leave) * _FNV_PRIME) & _MASK

            return True, run

        def run_gen(env, state):
            state.steps += 1
            subject = (subj_fn(env, state) if subj_pure
                       else (yield from subj_fn(env, state)))
            for key, value in _foreach_items(subject, state, where):
                bind(env, state, key, value)
                try:
                    if body_pure:
                        body_fn(env, state)
                    else:
                        yield from body_fn(env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ leave) * _FNV_PRIME) & _MASK

        return False, run_gen

    def _compile_index_assign(
        self, stmt: IndexAssign
    ) -> tuple[bool, Callable]:
        """§4.3's container rules.  The path is walked the way the
        interpreter walks it (root, then key by key, then the value,
        then the last key), in ``container`` — the one shared array
        until the root variable holds, or a key is, a multivalue; from
        there on a list of each slot's own array."""
        name = stmt.name
        apply = compound(stmt.op) if stmt.op else None
        use_env = self.use_env
        load, store = self._accessors(name)
        walk = [
            (self._compile_expr(p) if p is not None else None)
            for p in stmt.path[:-1]
        ]
        last = stmt.path[-1]
        last_c = self._compile_expr(last) if last is not None else None
        value_pure, value_fn, _ = self._compile_expr_copy(stmt.expr)
        all_pure = (
            value_pure
            and all(p is None or p[0] for p in walk)
            and (last_c is None or last_c[0])
        )
        not_array = f"cannot index non-array variable ${name}"

        def root(env, state):
            container = env.lookup(name) if use_env else env.get(name)
            if container is None:
                container = PhpArray()
                store(env, container)
            elif type(container) is MultiValue:
                for class_root in container.values:
                    if not isinstance(class_root, PhpArray):
                        raise WeblangError(not_array)
                # The stores below are per slot: a class's array splits.
                expanded, container = _expand(container, (), state)
                store(env, expanded)
            elif not isinstance(container, PhpArray):
                raise WeblangError(not_array)
            return container

        def step(env, state, container, walked, held, key):
            """``container`` ready for ``key``: expanded if it has to be."""
            if type(key) is MultiValue and type(container) is not list:
                expanded, container = _expand(load(env), walked, state, held)
                store(env, expanded)
            return container

        def finish(env, state, container, walked, held, key, value):
            if key is _APPEND and apply is not None:
                raise WeblangError("compound assignment to append slot")
            container = step(env, state, container, walked, held, key)
            _assign_cell(container, key, value, apply, state)
            if type(container) is list:
                store(env, state.merge(list(load(env).values)))

        if all_pure:
            walk_fns = [p[1] if p is not None else _no_key for p in walk]
            last_fn = last_c[1] if last_c is not None else None

            def run(env, state):
                state.steps += 1
                container = None if use_env else env.get(name)
                if type(container) is not PhpArray:
                    container = root(env, state)
                walked, held = [], []
                for path_fn in walk_fns:
                    key = path_fn(env, state)
                    container = _descend(
                        step(env, state, container, walked, held, key),
                        key, state, held)
                    walked.append(key)
                value = value_fn(env, state)
                key = _APPEND if last_fn is None else last_fn(env, state)
                if (apply is not None or type(container) is not PhpArray
                        or type(key) is MultiValue
                        or type(value) is MultiValue):
                    finish(env, state, container, walked, held, key, value)
                elif last_fn is None:  # all univalent
                    container.append(value)
                else:
                    container.set(key, value)
                if held:  # not ``$a[k] = e`` / ``$a[] = e``
                    _release(held)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            container = root(env, state)
            walked, held = [], []
            for path_c in walk:
                if path_c is None:
                    _no_key()
                path_pure, path_fn, _ = path_c
                key = (path_fn(env, state) if path_pure
                       else (yield from path_fn(env, state)))
                container = _descend(
                    step(env, state, container, walked, held, key), key,
                    state, held)
                walked.append(key)
            value = (value_fn(env, state) if value_pure
                     else (yield from value_fn(env, state)))
            key = _APPEND
            if last_c is not None:
                last_pure, last_fn, _ = last_c
                key = (last_fn(env, state) if last_pure
                       else (yield from last_fn(env, state)))
            finish(env, state, container, walked, held, key, value)
            _release(held)

        return False, run_gen

    def _compile_return(self, stmt: Return) -> tuple[bool, Callable]:
        if stmt.expr is None:

            def run(env, state):
                state.steps += 1
                raise _ReturnSignal(None)

            return True, run
        pure, fn, _ = self._compile_expr_copy(stmt.expr)
        if pure:

            def run(env, state):
                state.steps += 1
                raise _ReturnSignal(fn(env, state))

            return True, run

        def run_gen(env, state):
            state.steps += 1
            value = yield from fn(env, state)
            raise _ReturnSignal(value)

        return False, run_gen

    # -- expressions ----------------------------------------------------------

    def _const(self, value: object,
               steps: int) -> tuple[bool, Callable, tuple]:
        key = (type(value), repr(value), steps)  # 0.0 is not -0.0
        if key not in self.leaves:

            def run(env, state):
                state.steps += steps
                return value

            self.leaves[key] = (True, run, (value, steps))
        return self.leaves[key]

    def _compile_expr(self, node: Node) -> tuple[bool, Callable, tuple | None]:
        """Compile one expression.

        Returns ``(pure, fn, const)``: ``fn(env, state)`` is a plain
        closure when pure, a generator closure otherwise; ``const`` is
        ``(value, steps)`` when the subtree folded to a compile-time
        constant (``fn`` then credits the folded nodes' instruction
        count in one add).
        """
        kind = type(node)
        if kind is Lit:
            return self._const(node.value, 1)
        if kind is Var:
            name = node.name
            key = (name, self.use_env)
            if key in self.leaves:
                return self.leaves[key]
            if self.use_env:

                def run(env, state):
                    state.steps += 1
                    value = env.lookup(name)
                    if type(value) is MultiValue:
                        state.multivalent(len(value.values))
                    return value

            else:

                def run(env, state):
                    state.steps += 1
                    value = env.get(name)
                    if type(value) is MultiValue:
                        state.multivalent(len(value.values))
                    return value

            self.leaves[key] = (True, run, None)
            return self.leaves[key]
        if kind is BinOp:
            return self._compile_binop(node)
        if kind is Index:
            return self._compile_index(node)
        if kind is Call:
            return self._compile_call(node)
        if kind is UnOp:
            return self._compile_unop(node)
        if kind is Ternary:
            return self._compile_ternary(node)
        if kind is ArrayLit:
            return self._compile_arraylit(node)

        def run(env, state, _name=kind.__name__):
            state.steps += 1
            raise WeblangError(f"unknown expression {_name}")

        return True, run, None

    def _compile_expr_copy(
        self, node: Node
    ) -> tuple[bool, Callable, tuple | None]:
        """:meth:`_compile_expr` under the :meth:`Interpreter._eval_copy`
        rule: a Var/Index read whose value is an array (or a multivalue,
        which may hold one per slot) copies it into the new location."""
        var = self._frame_var(node)
        if var is not None:  # one function: read, book, copy
            if (var, "copy") not in self.leaves:
                self.leaves[var, "copy"] = (True, regions.copy_read(var),
                                            None)
            return self.leaves[var, "copy"]
        if type(node) is Index:
            fused = self._const_index(node, copy=True)
            if fused is not None:
                return fused
        compiled = self._compile_expr(node)
        if type(node) not in (Var, Index):
            return compiled
        pure, fn, _ = compiled
        if pure:

            def run(env, state):
                value = fn(env, state)
                kind = type(value)
                if kind is PhpArray or kind is MultiValue:
                    return _copy_value(value)
                return value

            return True, run, None

        def run_gen(env, state):
            value = yield from fn(env, state)
            kind = type(value)
            if kind is PhpArray or kind is MultiValue:
                return _copy_value(value)
            return value

        return False, run_gen, None

    def _compile_binop(self, node: BinOp) -> tuple[bool, Callable, tuple | None]:
        op = node.op
        if op in ("&&", "||"):
            return self._compile_logic(node)
        left_pure, left_fn, left_const = self._compile_expr(node.left)
        right_pure, right_fn, right_const = self._compile_expr(node.right)
        combine = binop(op)
        if left_const is not None and right_const is not None:
            try:
                folded = combine(left_const[0], right_const[0])
            except WeblangError:
                pass  # fold would raise: keep it a runtime error
            else:
                return self._const(
                    folded, 1 + left_const[1] + right_const[1]
                )
        # Fused operands: a constant or a frame variable is read in line,
        # its instruction count riding on this node's, and two operands
        # of the operator's exact type take its plain form (``kind`` is
        # ``None`` where there is none, which no ``type()`` is).
        left_var = self._frame_var(node.left)
        if left_pure and right_const is not None:
            right, steps = right_const[0], right_const[1] + 1
            kind, fast = exact_op(op, right)
            if left_var is not None:  # ``$i * 3``
                steps += 1

                def run(env, state):
                    state.steps += steps
                    left = env.get(left_var)
                    if type(left) is kind:
                        return fast(left, right)
                    if type(left) is MultiValue:
                        state.multivalent(len(left.values))
                        return _multi_binop(combine, left, right, state)
                    return combine(left, right)

                return True, run, None

            def run(env, state):
                state.steps += steps
                left = left_fn(env, state)
                if type(left) is kind:
                    return fast(left, right)
                if type(left) is MultiValue:
                    return _multi_binop(combine, left, right, state)
                return combine(left, right)

            return True, run, None
        kind, fast = exact_op(op)
        right_var = self._frame_var(node.right)
        if left_var is not None and right_var is not None:  # ``$i < $n``

            def run(env, state):
                state.steps += 3
                left = env.get(left_var)
                right = env.get(right_var)
                left_kind, right_kind = type(left), type(right)
                if left_kind is kind and right_kind is kind:
                    return fast(left, right)
                if left_kind is not MultiValue \
                        and right_kind is not MultiValue:
                    return combine(left, right)
                if left_kind is MultiValue:
                    state.multivalent(len(left.values))
                if right_kind is MultiValue:
                    state.multivalent(len(right.values))
                return _multi_binop(combine, left, right, state)

            return True, run, None
        if left_pure and right_pure:

            def run(env, state):
                state.steps += 1
                left = left_fn(env, state)
                right = right_fn(env, state)
                left_kind, right_kind = type(left), type(right)
                if left_kind is kind and right_kind is kind:
                    return fast(left, right)
                if left_kind is MultiValue or right_kind is MultiValue:
                    return _multi_binop(combine, left, right, state)
                return combine(left, right)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            left = (left_fn(env, state) if left_pure
                    else (yield from left_fn(env, state)))
            right = (right_fn(env, state) if right_pure
                     else (yield from right_fn(env, state)))
            return _binop(combine, left, right, state)

        return False, run_gen, None

    def _compile_logic(self, node: BinOp) -> tuple[bool, Callable, None]:
        left_pure, left_fn, _ = self._compile_expr(node.left)
        right_pure, right_fn, _ = self._compile_expr(node.right)
        # Digest target: nid * 2 + whether the right operand runs.
        skip_mix = branch_mix("sc", node.nid * 2)
        right_mix = branch_mix("sc", node.nid * 2 + 1)
        where = f"logic#{node.nid}"
        is_and = node.op == "&&"
        # Only the left operand decides where control goes; the right
        # one's truth is a value (``_unop``: per slot if it differs).
        if left_pure and right_pure:

            def run(env, state):
                state.steps += 1
                # ``&&`` goes on when the left is true, ``||`` when not.
                left = left_fn(env, state)
                take_right = (left is True or (
                    left is not False and _truth(left, where))) is is_and
                flow = state.flow
                if flow is not None:
                    state.flow = ((flow ^ (right_mix if take_right
                                           else skip_mix))
                                  * _FNV_PRIME) & _MASK
                if not take_right:
                    return not is_and
                return _unop(truthy, right_fn(env, state), state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            left = (left_fn(env, state) if left_pure
                    else (yield from left_fn(env, state)))
            take_right = (left is True or (
                left is not False and _truth(left, where))) is is_and
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ (right_mix if take_right
                                       else skip_mix))
                              * _FNV_PRIME) & _MASK
            if not take_right:
                return not is_and
            right = (right_fn(env, state) if right_pure
                     else (yield from right_fn(env, state)))
            return _unop(truthy, right, state)

        return False, run_gen, None

    def _compile_unop(self, node: UnOp) -> tuple[bool, Callable, tuple | None]:
        apply = unop(node.op)
        pure, fn, const = self._compile_expr(node.operand)
        if const is not None:
            try:
                folded = apply(const[0])
            except WeblangError:
                pass  # fold would raise: keep it a runtime error
            else:
                return self._const(folded, const[1] + 1)
        if pure:

            def run(env, state):
                state.steps += 1
                return _unop(apply, fn(env, state), state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            return _unop(apply, (yield from fn(env, state)), state)

        return False, run_gen, None

    def _compile_ternary(self, node: Ternary) -> tuple[bool, Callable, None]:
        cond_pure, cond_fn, _ = self._compile_expr(node.cond)
        then_pure, then_fn, _ = self._compile_expr(node.then)
        other_pure, other_fn, _ = self._compile_expr(node.other)
        # Digest target: nid * 2 + whether the condition held.
        other_mix = branch_mix("tern", node.nid * 2)
        then_mix = branch_mix("tern", node.nid * 2 + 1)
        where = f"ternary#{node.nid}"
        if cond_pure and then_pure and other_pure:

            def run(env, state):
                state.steps += 1
                cond = cond_fn(env, state)
                taken = cond is True or (cond is not False
                                         and _truth(cond, where))
                flow = state.flow
                if flow is not None:
                    state.flow = ((flow ^ (then_mix if taken else other_mix))
                                  * _FNV_PRIME) & _MASK
                if taken:
                    return then_fn(env, state)
                return other_fn(env, state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            cond = (cond_fn(env, state) if cond_pure
                    else (yield from cond_fn(env, state)))
            taken = cond is True or (cond is not False
                                     and _truth(cond, where))
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ (then_mix if taken else other_mix))
                              * _FNV_PRIME) & _MASK
            if taken:
                if then_pure:
                    return then_fn(env, state)
                return (yield from then_fn(env, state))
            if other_pure:
                return other_fn(env, state)
            return (yield from other_fn(env, state))

        return False, run_gen, None

    def _const_index(self, node: Index,
                     copy: bool) -> tuple[bool, Callable, None] | None:
        """``$v['k']`` / ``$v[1]`` on a dict frame, one closure: the key
        normalised once, the steps of the ``Index``, ``Var`` and key
        closures booked in one add; ``None`` for any other shape.  A base
        that is not one univalue array goes to ``_index``, as before."""
        var = self._frame_var(node.base)
        const = self._compile_expr(node.index)[2] if var is not None else None
        if const is None or type(const[0]) not in (int, str):
            return None
        key, steps = const[0], const[1] + 2
        norm = PhpArray._norm_key(key)

        def run(env, state):
            state.steps += steps
            base = env.get(var)
            if type(base) is PhpArray:
                value = base.data.get(norm)
                if type(value) is MultiValue:
                    state.multivalent(len(value.values))
            else:
                if type(base) is MultiValue:
                    state.multivalent(len(base.values))
                value = _index(base, key, state)
            if copy and (type(value) is PhpArray
                         or type(value) is MultiValue):
                return _copy_value(value)
            return value

        return True, run, None

    def _compile_index(self, node: Index) -> tuple[bool, Callable, None]:
        fused = self._const_index(node, copy=False)
        if fused is not None:
            return fused
        base_pure, base_fn, _ = self._compile_expr(node.base)
        index_pure, index_fn, _ = self._compile_expr(node.index)
        indexable = (PhpArray, str, MultiValue)
        if base_pure and index_pure:

            def run(env, state):
                state.steps += 1
                base = base_fn(env, state)
                if type(base) is PhpArray:
                    index = index_fn(env, state)
                    if type(index) is not MultiValue:
                        value = base.get(index)
                        if type(value) is MultiValue:
                            state.multivalent(len(value.values))
                        return value
                    return _index(base, index, state)
                if not isinstance(base, indexable):
                    raise WeblangError("indexing a non-array value")
                return _index(base, index_fn(env, state), state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            base = (base_fn(env, state) if base_pure
                    else (yield from base_fn(env, state)))
            if not isinstance(base, indexable):
                raise WeblangError("indexing a non-array value")
            index = (index_fn(env, state) if index_pure
                     else (yield from index_fn(env, state)))
            return _index(base, index, state)

        return False, run_gen, None

    def _compile_arraylit(self, node: ArrayLit) -> tuple[bool, Callable, None]:
        items = [
            (
                self._compile_expr(key) if key is not None else None,
                self._compile_expr_copy(value),
            )
            for key, value in node.items
        ]
        all_pure = all(
            (key is None or key[0]) and value[0] for key, value in items
        )
        keys: list = [_const_key(key) for key, _ in items]
        if all_pure and None not in keys:
            # Every key a constant or ``[]``: where each value lands is
            # known now, and no value can make the array a list.
            norms, top = [], 0
            for key in keys:
                norm = top if key is _APPEND else key[0]
                if type(norm) is int and norm >= top:
                    top = norm + 1
                norms.append(norm)
            steps = 1 + sum(key[1] for key in keys if key is not _APPEND)
            held: list = [value[2] or self.literals.get(value[1])
                          for _, value in items]
            if None not in held:  # constant: one array, built now
                array = PhpArray.from_data(
                    dict(zip(norms, [value for value, _ in held])), top)
                steps += sum(held_steps for _, held_steps in held)

                def run(env, state):
                    state.steps += steps
                    return array.copy()  # a copy-on-write handle

                self.literals[run] = (array, steps)
                return True, run, None
            cells = list(zip(norms, [value[1] for _, value in items]))

            def run(env, state):
                state.steps += steps
                data = {}
                for norm, value_fn in cells:
                    value = value_fn(env, state)
                    if type(value) is MultiValue:
                        state.multi_cells = True
                    data[norm] = value
                return PhpArray.from_data(data, top)

            return True, run, None
        # Any other literal: its constant keys go in normalised.
        items = [(self._const(*const) if type(const) is tuple else key, value)
                 for (key, value), const in zip(items, keys)]
        if all_pure:
            pairs = [
                (key[1] if key is not None else None, value[1])
                for key, value in items
            ]

            def run(env, state):
                state.steps += 1
                array = PhpArray()
                for key_fn, value_fn in pairs:
                    value = value_fn(env, state)
                    key = (_APPEND if key_fn is None
                           else key_fn(env, state))
                    if (type(array) is not PhpArray
                            or type(key) is MultiValue
                            or type(value) is MultiValue):
                        array = _add_item(array, key, value, state)
                    elif key_fn is None:  # all univalent
                        array.append(value)
                    else:
                        array.set(key, value)
                return _literal(array, state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            array = PhpArray()
            for key_c, (value_pure, value_fn, _) in items:
                value = (value_fn(env, state) if value_pure
                         else (yield from value_fn(env, state)))
                key = _APPEND
                if key_c is not None:
                    key_pure, key_fn, _ = key_c
                    key = (key_fn(env, state) if key_pure
                           else (yield from key_fn(env, state)))
                array = _add_item(array, key, value, state)
            return _literal(array, state)

        return False, run_gen, None

    # -- calls ------------------------------------------------------------

    def _compile_args(self, compiled: list[tuple]) -> tuple[bool, Callable]:
        """Evaluate a call's arguments — ``compiled`` by
        :meth:`_compile_expr_copy` — to a list."""
        if all(pure for pure, _, _ in compiled):
            fns = [fn for _, fn, _ in compiled]

            def run(env, state):
                return [fn(env, state) for fn in fns]

            return True, run

        def run_gen(env, state):
            values = []
            for pure, fn, _ in compiled:
                values.append(fn(env, state) if pure
                              else (yield from fn(env, state)))
            return values

        return False, run_gen

    def _after_args(
        self, args_pure: bool, args_fn: Callable, finish: Callable
    ) -> tuple[bool, Callable, None]:
        """A call that evaluates its arguments, then does plain work:
        ``finish(args, state)``."""
        if args_pure:

            def run(env, state):
                state.steps += 1
                return finish(args_fn(env, state), state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            return finish((yield from args_fn(env, state)), state)

        return False, run_gen, None

    def _compile_call(self, node: Call) -> tuple[bool, Callable, None]:
        name = node.name
        compiled = [self._compile_expr_copy(arg) for arg in node.args]
        args_pure, args_fn = self._compile_args(compiled)
        if name in REQUEST_INPUTS:
            return self._compile_request_input(name, args_pure, args_fn)
        if name in STATE_BUILTINS:
            return self._compile_state_call(name, args_pure, args_fn)
        if name in EXTERNAL_BUILTINS:
            return self._compile_external(name, args_pure, args_fn)
        if name in NONDET_BUILTINS:

            def run_gen(env, state):
                state.steps += 1
                args = (args_fn(env, state) if args_pure
                        else (yield from args_fn(env, state)))
                results = yield GroupNondetIntent(name, _rows(
                    [_slots(arg, state) for arg in args], state))
                return state.merge(list(results))

            return False, run_gen, None
        func = self.funcs.get(name)
        if func is not None:
            return self._compile_user_call(func, args_pure, args_fn)
        builtin = PURE_BUILTINS.get(name)
        if builtin is not None and args_pure and 1 <= len(compiled) <= 3:
            return True, regions.call(builtin, [
                (fn, self._frame_var(arg), const)
                for arg, (_, fn, const) in zip(node.args, compiled)]), None
        if builtin is not None:
            return self._after_args(args_pure, args_fn,
                                    partial(_call_builtin, builtin))

        # Undefined function: arguments evaluate first, like the
        # interpreter, then the call raises.
        def undefined(args, state):
            raise WeblangError(f"call to undefined function {name}()")

        return self._after_args(args_pure, args_fn, undefined)

    def _compile_request_input(
        self, name: str, args_pure: bool, args_fn: Callable
    ) -> tuple[bool, Callable, None]:
        attr = REQUEST_INPUTS[name]

        def finish(args, state):
            if len(args) not in (1, 2):
                raise WeblangError(f"{name}() expects 1 or 2 arguments")
            for arg in args:
                if type(arg) is MultiValue:
                    raise MultivalueFallback(
                        f"{name}() with multivalue arguments")
            key = to_str(args[0])
            default = args[1] if len(args) == 2 else None
            return _merged_read(
                [getattr(request, attr).get(key, default)
                 for request in state.requests], state)

        return self._after_args(args_pure, args_fn, finish)

    def _compile_user_call(
        self, func: _CompiledFunc, args_pure: bool, args_fn: Callable
    ) -> tuple[bool, Callable, None]:
        params = tuple(func.params)
        use_env = func.use_env

        def make_frame(args, state):
            if state.depth >= _MAX_CALL_DEPTH:
                raise WeblangError("maximum call depth exceeded")
            if use_env:
                frame = _Env(state.globals)
                slots = frame.vars
            else:
                frame = slots = {}
            for index, param in enumerate(params):
                slots[param] = args[index] if index < len(args) else None
            return frame

        if func.pure and args_pure:

            def run(env, state):
                state.steps += 1
                frame = make_frame(args_fn(env, state), state)
                state.depth += 1
                try:
                    func.run(frame, state)
                    return None
                except _ReturnSignal as signal:
                    return signal.value
                finally:
                    state.depth -= 1

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            args = (args_fn(env, state) if args_pure
                    else (yield from args_fn(env, state)))
            frame = make_frame(args, state)
            state.depth += 1
            try:
                if func.pure:
                    func.run(frame, state)
                else:
                    yield from func.run(frame, state)
                return None
            except _ReturnSignal as signal:
                return signal.value
            finally:
                state.depth -= 1

        return False, run_gen, None

    # -- state / external built-ins ----------------------------------------

    def _compile_state_call(
        self, name: str, args_pure: bool, args_fn: Callable
    ) -> tuple[bool, Callable, None]:
        """The eleven state built-ins: each yields one
        :class:`GroupStateOpIntent` carrying every slot's object name
        and operands."""
        db_name = self.db_name
        kv_name = self.kv_name
        session_cookie = self.session_cookie
        convert = Interpreter._convert_db_result

        def check_args(args, expected):
            if len(args) != expected:
                raise WeblangError(
                    f"{name}() expects {expected} arguments, "
                    f"got {len(args)}"
                )

        def session_registers(_args, state):
            registers = []
            for request in state.requests:
                cookie = request.cookies.get(session_cookie)
                if cookie is None:
                    raise WeblangError(
                        "session_get/session_put without a session cookie"
                    )
                registers.append(f"reg:sess:{cookie}")
            return registers

        def global_registers(args, state):
            return [f"reg:g:{key}" for key in _strs(args[0], state)]

        def the_kv(_args, state):
            return [kv_name] * state.size

        def nothing(_args, state):
            return [()] * state.size

        if name in ("db_query", "db_exec"):

            def op(args, state):
                check_args(args, 1)
                results = yield GroupStateOpIntent(
                    "db_statement", [db_name] * state.size,
                    [(sql,) for sql in _strs(args[0], state)])
                return _merged_replies(partial(convert, name), results,
                                       state)

        elif name in ("db_begin", "db_commit", "db_rollback"):
            opens = name == "db_begin"  # the other two close one

            def op(args, state):
                check_args(args, 0)
                if state.in_tx is opens:
                    raise WeblangError(
                        "nested transactions are not allowed" if opens
                        else f"{name}() without a transaction")
                results = yield GroupStateOpIntent(
                    name, [db_name] * state.size, [()] * state.size)
                state.in_tx = opens
                if name != "db_commit":
                    return None
                return state.merge([bool(result) for result in results])

        else:
            # Register- and key-value operations: (arity, intent kind,
            # per-slot object names, per-slot operands); a read's
            # replies are thawed and merged, a write returns null.
            arity, kind, objs_of, operands_of = {
                "kv_get": (1, "kv_get", the_kv, lambda args, state: [
                    (key,) for key in _strs(args[0], state)]),
                "kv_set": (2, "kv_set", the_kv, lambda args, state: list(
                    zip(_strs(args[0], state), _frozen(args[1], state)))),
                "reg_read": (1, "register_read", global_registers, nothing),
                "reg_write": (
                    2, "register_write", global_registers,
                    lambda args, state: _rows([_frozen(args[1], state)],
                                              state)),
                "session_get": (0, "register_read", session_registers,
                                nothing),
                "session_put": (
                    1, "register_write", session_registers,
                    lambda args, state: _rows([_frozen(args[0], state)],
                                              state)),
            }[name]
            is_read = kind.endswith(("_get", "_read"))

            def op(args, state):
                if state.in_tx:
                    # §4.4: a transaction cannot enclose other object
                    # operations.
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, arity)
                results = yield GroupStateOpIntent(
                    kind, objs_of(args, state), operands_of(args, state))
                if not is_read:
                    return None
                return _merged_replies(thaw_value, results, state)

        def run_gen(env, state):
            state.steps += 1
            args = (args_fn(env, state) if args_pure
                    else (yield from args_fn(env, state)))
            return (yield from op(args, state))

        return False, run_gen, None

    def _compile_external(
        self, name: str, args_pure: bool, args_fn: Callable
    ) -> tuple[bool, Callable, None]:
        is_email = name == "send_email"

        def run_gen(env, state):
            state.steps += 1
            args = (args_fn(env, state) if args_pure
                    else (yield from args_fn(env, state)))
            if state.in_tx:
                raise WeblangError(
                    f"{name}() inside a DB transaction violates the "
                    "object model"
                )
            services = (["email"] * state.size if is_email
                        else _strs(args[0], state))
            payload = args if is_email else args[1:]
            yield GroupExternalIntent(services, _rows(
                [_frozen(value, state) for value in payload], state))
            return True

        return False, run_gen, None


def _const_key(key: tuple | None) -> tuple | object | None:
    """A compiled literal key's ``(normalised value, steps)`` when it is
    an int / str constant, ``_APPEND`` for ``[]``, else ``None``."""
    if key is None:
        return _APPEND
    const = key[2]
    if const is None or type(const[0]) not in (int, str):
        return None
    return PhpArray._norm_key(const[0]), const[1]


def _scope_uses_global(stmts: list[Node]) -> bool:
    """True when the scope executes a ``global`` declaration anywhere
    (so its frame needs the :class:`_Env` indirection)."""
    for stmt in stmts:
        kind = type(stmt)
        if kind is GlobalDecl:
            return True
        if kind is If:
            for _, body in stmt.branches:
                if _scope_uses_global(body):
                    return True
            if stmt.else_body is not None and _scope_uses_global(
                stmt.else_body
            ):
                return True
        elif kind in (While, Foreach):
            if _scope_uses_global(stmt.body):
                return True
    return False


class CompiledProgram:
    """One compiled script: :meth:`run_group` re-executes a control-flow
    group, :meth:`run` one request with the exact generator contract of
    :meth:`repro.lang.interp.Interpreter.run`."""

    __slots__ = ("name", "_body_pure", "_body_fn", "_flow_seed")

    def __init__(self, name: str, body_pure: bool, body_fn: Callable):
        self.name = name
        self._body_pure = body_pure
        self._body_fn = body_fn
        #: Where every run's control-flow digest starts: the script name
        #: folded in (``FlowDigest().update_str(name)``).
        self._flow_seed = fnv1a(name.encode())

    def run_group(self, requests: list[Request], collapse: bool = True,
                  record_flow: bool = False):
        """Superposed execution of ``requests`` (all share control flow).

        Generator: yields Group*Intents (the driver sends back one
        result per slot), returns :class:`GroupRunOutput`.  Raises
        :class:`DivergenceError` if control flow differs across the
        group, :class:`MultivalueFallback` on unsupported SIMD cases and
        :class:`WeblangError` when any member's execution errors.
        """
        state = _State(list(requests),
                       self._flow_seed if record_flow else None, collapse)
        env = state.globals  # the top-level frame is the globals dict
        try:
            if self._body_pure:
                self._body_fn(env, state)
            else:
                yield from self._body_fn(env, state)
        except _ReturnSignal:
            pass  # top-level return ends the script, like PHP
        except (_BreakSignal, _ContinueSignal):
            raise WeblangError("break/continue outside loop") from None
        if state.in_tx:
            raise WeblangError("script ended with an open transaction")
        flow_tag = None if state.flow is None else f"{state.flow:016x}"
        return GroupRunOutput(_render(state), state.steps,
                              state.multi_steps, flow_tag,
                              state.multi_steps * state.size,
                              state.multi_classes)

    def run(self, request: Request, record_flow: bool = True):
        """``request`` as a group of one: each group intent becomes the
        interpreter's per-request intent, each reply a one-slot list."""
        group = self.run_group([request], record_flow=record_flow)
        replies = None
        try:
            while True:
                intent = group.send(replies)
                kind = type(intent)
                if kind is GroupStateOpIntent:
                    reply = yield StateOpIntent(
                        intent.kind, intent.objs[0], intent.args[0])
                elif kind is GroupNondetIntent:
                    reply = yield NondetIntent(intent.func, intent.args[0])
                else:
                    reply = yield ExternalIntent(
                        intent.services[0], intent.contents[0])
                replies = [reply]
        except StopIteration as stop:
            output = stop.value
        return RunOutput(output.bodies[0], output.flow_tag, output.steps)


def compile_program(
    program: Program,
    db_name: str = "db:main",
    kv_name: str = "kv:apc",
    session_cookie: str = "sess",
) -> CompiledProgram:
    """Compile ``program`` (uncached); see :func:`compiled_for`."""
    return _Compiler(program, db_name, kv_name, session_cookie).compile()


#: (id(program), dialect) -> (weakref-to-program, CompiledProgram).  The
#: weakref guards against id() reuse after a program is collected.
_CACHE: dict[tuple, tuple[Callable, CompiledProgram]] = {}

#: Programs compiled by this process (cache misses), for benchmarks and
#: the cache tests.
_cache_misses = 0


def compiled_for(
    program: Program,
    db_name: str = "db:main",
    kv_name: str = "kv:apc",
    session_cookie: str = "sess",
) -> CompiledProgram:
    """The compiled form of ``program``, compiled on first use.

    Keyed by program identity plus dialect: every later call in this
    process — including from pool worker processes after they parse
    the application's sources once — reuses the compiled closures.
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
    a group (:meth:`run_group`) or — a drop-in for
    :class:`~repro.lang.interp.Interpreter` — one request (:meth:`run`)."""

    def __init__(
        self,
        db_name: str = "db:main",
        kv_name: str = "kv:apc",
        session_cookie: str = "sess",
        record_flow: bool = True,
        collapse_enabled: bool = True,
    ):
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        self.record_flow = record_flow
        self.collapse_enabled = collapse_enabled

    def _compiled(self, program: Program) -> CompiledProgram:
        return compiled_for(program, self.db_name, self.kv_name,
                            self.session_cookie)

    def run(self, program: Program, request: Request):
        return self._compiled(program).run(request, self.record_flow)

    def run_group(self, program: Program, requests: list[Request]):
        return self._compiled(program).run_group(requests,
                                                 self.collapse_enabled)
