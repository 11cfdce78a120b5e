"""The compiling weblang backend: AST → closure chains, once per program.

The plain interpreter (:mod:`repro.lang.interp`) re-dispatches on node
type at every step and builds a Python generator frame for every AST
node it walks (the ``yield from`` chain).  At audit time the same few
programs re-execute thousands of times, so that per-node tax is pure
overhead.  This module compiles a :class:`~repro.lang.ast.Program` once
into a tree of pre-bound Python closures:

* **pure subtrees** — expressions and statements that can never perform
  a shared-object operation, a non-deterministic built-in, or an
  external call — compile to plain ``fn(env, state)`` closures: no
  generator frames at all, which is where most of the win comes from.
  Function-level purity comes from the static analyzer
  (:func:`repro.lang.analysis.analysis_for`), whose call-graph effect
  fixpoint handles mutual recursion precisely;
* **impure subtrees** compile to generator closures that ``yield`` the
  same :class:`~repro.lang.interp.StateOpIntent` /
  :class:`~repro.lang.interp.NondetIntent` /
  :class:`~repro.lang.interp.ExternalIntent` objects as the plain
  interpreter, so every existing driver (the executor, ``execute_one``,
  the re-exec backends) drives compiled code unchanged;
* **constant subtrees** (literal-only arithmetic/concat/comparison) fold
  at compile time, preserving the exact instruction count the folded
  nodes would have contributed;
* names resolve at compile time: built-ins are pre-bound to their
  closures, user functions to their compiled bodies, and scopes that
  never execute a ``global`` declaration use a plain dict frame instead
  of the :class:`~repro.lang.interp._Env` indirection.

**Bit-identity contract.**  Compiled execution must be observationally
identical to :class:`~repro.lang.interp.Interpreter` — same produced
bodies, same control-flow digests (same update sequence, nid for nid),
same ``steps`` instruction counts, same intent sequences, and same
error behaviour (a constant fold that would raise
:class:`~repro.common.errors.WeblangError` is *not* folded, so the
error still fires at run time, after the same side effects).  The
differential fuzz tests and the ``interp``-vs-``compinterp`` backend
equivalence tests enforce this.

**Compile cache.**  :func:`compiled_for` memoizes per ``(program,
dialect)`` keyed by object identity with a weakref guard, so every
chunk/group re-execution in a run — and every chunk a pool worker
process runs after unpickling the application once — reuses the same
compiled code.  The cache is per-process by construction, which is
exactly the compile-on-first-use worker-side behaviour the parallel
drivers need: the compiled closures never travel through a pickle.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

from repro.common.digest import FlowDigest
from repro.common.errors import WeblangError
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
    FuncDecl,
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
from repro.lang.analysis import analysis_for
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
    freeze_value,
    thaw_value,
)
from repro.lang.values import (
    PhpArray,
    binop,
    compound,
    to_int,
    to_str,
    truthy,
    unop,
)
from repro.trace.events import Request


class _State:
    """Per-request mutable state of a compiled run (the compiled analog
    of :class:`repro.lang.interp._RunState`; ``funcs`` is gone — user
    calls are resolved at compile time — and ``globals`` is the
    top-level frame dict, which ``global``-using function frames link
    back to)."""

    __slots__ = ("request", "output", "digest", "in_tx", "steps", "depth",
                 "globals")

    def __init__(self, request: Request, digest: FlowDigest | None):
        self.request = request
        self.output: list[str] = []
        self.digest = digest
        self.in_tx = False
        self.steps = 0
        self.depth = 0
        self.globals: dict[str, object] = {}


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
        #: single source of truth for purity (repro.lang.analysis); the
        #: report is cached per (program, dialect) like the compile cache.
        self.analysis = analysis_for(program, db_name, kv_name,
                                     session_cookie)

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

    # -- blocks and statements ------------------------------------------------

    def _compile_block(self, stmts: list[Node]) -> tuple[bool, Callable]:
        compiled = [self._compile_stmt(stmt) for stmt in stmts]
        if all(pure for pure, _ in compiled):
            fns = [fn for _, fn in compiled]
            if len(fns) == 1:
                return True, fns[0]

            def run(env, state, _fns=fns):
                for fn in _fns:
                    fn(env, state)

            return True, run

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
        pure, fn = self._compile_expr_copy(stmt.expr)
        name = stmt.name
        op = stmt.op
        apply = compound(op)  # unused for a plain ``=``
        use_env = self.use_env
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
            if use_env:

                def run(env, state):
                    state.steps += 1
                    value = fn(env, state)
                    env.store(name, apply(env.lookup(name), value))

            else:

                def run(env, state):
                    state.steps += 1
                    value = fn(env, state)
                    env[name] = apply(env.get(name), value)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            value = yield from fn(env, state)
            if op:
                current = env.lookup(name) if use_env else env.get(name)
                value = apply(current, value)
            if use_env:
                env.store(name, value)
            else:
                env[name] = value

        return False, run_gen

    def _compile_echo(self, stmt: Echo) -> tuple[bool, Callable]:
        compiled = [self._compile_expr(expr) for expr in stmt.exprs]
        if all(pure for pure, _, _ in compiled):
            fns = [fn for _, fn, _ in compiled]

            def run(env, state):
                state.steps += 1
                append = state.output.append
                for fn in fns:
                    append(to_str(fn(env, state)))

            return True, run
        items = [(pure, fn) for pure, fn, _ in compiled]

        def run_gen(env, state):
            state.steps += 1
            append = state.output.append
            for pure, fn in items:
                value = (fn(env, state) if pure
                         else (yield from fn(env, state)))
                append(to_str(value))

        return False, run_gen

    def _compile_if(self, stmt: If) -> tuple[bool, Callable]:
        branches = [
            (self._compile_expr(cond), self._compile_block(body))
            for cond, body in stmt.branches
        ]
        else_c = (self._compile_block(stmt.else_body)
                  if stmt.else_body is not None else None)
        nid64 = stmt.nid * 64
        all_pure = all(
            cond[0] and body[0] for cond, body in branches
        ) and (else_c is None or else_c[0])
        if all_pure:
            plain = [(cond[1], body[1]) for cond, body in branches]
            else_fn = else_c[1] if else_c is not None else None

            def run(env, state):
                state.steps += 1
                taken = -1
                body_fn = else_fn
                for index, (cond_fn, branch_fn) in enumerate(plain):
                    if truthy(cond_fn(env, state)):
                        taken = index
                        body_fn = branch_fn
                        break
                digest = state.digest
                if digest is not None:
                    digest.update("if", nid64 + taken + 1)
                if body_fn is not None:
                    body_fn(env, state)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            taken = -1
            body = else_c
            for index, (cond, branch_body) in enumerate(branches):
                cond_pure, cond_fn, _ = cond
                value = (cond_fn(env, state) if cond_pure
                         else (yield from cond_fn(env, state)))
                if truthy(value):
                    taken = index
                    body = branch_body
                    break
            digest = state.digest
            if digest is not None:
                digest.update("if", nid64 + taken + 1)
            if body is not None:
                body_pure, body_fn = body
                if body_pure:
                    body_fn(env, state)
                else:
                    yield from body_fn(env, state)

        return False, run_gen

    def _compile_while(self, stmt: While) -> tuple[bool, Callable]:
        cond_pure, cond_fn, _ = self._compile_expr(stmt.cond)
        body_pure, body_fn = self._compile_block(stmt.body)
        nid = stmt.nid
        if cond_pure and body_pure:

            def run(env, state):
                state.steps += 1
                while True:
                    if not truthy(cond_fn(env, state)):
                        break
                    digest = state.digest
                    if digest is not None:
                        digest.update("loop", nid)
                    try:
                        body_fn(env, state)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        continue
                digest = state.digest
                if digest is not None:
                    digest.update("loopx", nid)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            while True:
                value = (cond_fn(env, state) if cond_pure
                         else (yield from cond_fn(env, state)))
                if not truthy(value):
                    break
                digest = state.digest
                if digest is not None:
                    digest.update("loop", nid)
                try:
                    if body_pure:
                        body_fn(env, state)
                    else:
                        yield from body_fn(env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            digest = state.digest
            if digest is not None:
                digest.update("loopx", nid)

        return False, run_gen

    def _compile_foreach(self, stmt: Foreach) -> tuple[bool, Callable]:
        subj_pure, subj_fn, _ = self._compile_expr(stmt.subject)
        body_pure, body_fn = self._compile_block(stmt.body)
        key_var = stmt.key_var
        val_var = stmt.val_var
        nid = stmt.nid
        use_env = self.use_env

        def store(env, name, value):
            if use_env:
                env.store(name, value)
            else:
                env[name] = value

        if subj_pure and body_pure:

            def run(env, state):
                state.steps += 1
                subject = subj_fn(env, state)
                if not isinstance(subject, PhpArray):
                    raise WeblangError("foreach over a non-array")
                for key, value in subject.items():
                    digest = state.digest
                    if digest is not None:
                        digest.update("loop", nid)
                    if key_var is not None:
                        store(env, key_var, key)
                    if isinstance(value, PhpArray):
                        store(env, val_var, value.deep_copy())
                    else:
                        store(env, val_var, value)
                    try:
                        body_fn(env, state)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        continue
                digest = state.digest
                if digest is not None:
                    digest.update("loopx", nid)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            subject = (subj_fn(env, state) if subj_pure
                       else (yield from subj_fn(env, state)))
            if not isinstance(subject, PhpArray):
                raise WeblangError("foreach over a non-array")
            for key, value in subject.items():
                digest = state.digest
                if digest is not None:
                    digest.update("loop", nid)
                if key_var is not None:
                    store(env, key_var, key)
                if isinstance(value, PhpArray):
                    store(env, val_var, value.deep_copy())
                else:
                    store(env, val_var, value)
                try:
                    if body_pure:
                        body_fn(env, state)
                    else:
                        yield from body_fn(env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            digest = state.digest
            if digest is not None:
                digest.update("loopx", nid)

        return False, run_gen

    def _compile_index_assign(
        self, stmt: IndexAssign
    ) -> tuple[bool, Callable]:
        name = stmt.name
        op = stmt.op
        apply = compound(op)  # unused for a plain ``=``
        use_env = self.use_env
        walk = [
            (self._compile_expr(p) if p is not None else None)
            for p in stmt.path[:-1]
        ]
        last = stmt.path[-1]
        last_c = self._compile_expr(last) if last is not None else None
        value_pure, value_fn = self._compile_expr_copy(stmt.expr)
        all_pure = (
            value_pure
            and all(p is None or p[0] for p in walk)
            and (last_c is None or last_c[0])
        )

        def root(env, state):
            container = env.lookup(name) if use_env else env.get(name)
            if container is None:
                container = PhpArray()
                if use_env:
                    env.store(name, container)
                else:
                    env[name] = container
            if not isinstance(container, PhpArray):
                raise WeblangError(
                    f"cannot index non-array variable ${name}"
                )
            return container

        def descend(container, key):
            inner = container.get(key)
            if inner is None:
                inner = PhpArray()
                container.set(key, inner)
            if not isinstance(inner, PhpArray):
                raise WeblangError("cannot index into a scalar")
            return inner

        if all_pure:
            walk_fns = [p[1] if p is not None else None for p in walk]
            last_fn = last_c[1] if last_c is not None else None

            def run(env, state):
                state.steps += 1
                container = root(env, state)
                for path_fn in walk_fns:
                    if path_fn is None:
                        raise WeblangError(
                            "'[]' only allowed as the last index"
                        )
                    container = descend(container,
                                        path_fn(env, state))
                value = value_fn(env, state)
                if last_fn is None:
                    if op:
                        raise WeblangError(
                            "compound assignment to append slot"
                        )
                    container.append(value)
                else:
                    key = last_fn(env, state)
                    if op:
                        value = apply(container.get(key), value)
                    container.set(key, value)

            return True, run

        def run_gen(env, state):
            state.steps += 1
            container = root(env, state)
            for path_c in walk:
                if path_c is None:
                    raise WeblangError("'[]' only allowed as the last index")
                path_pure, path_fn, _ = path_c
                key = (path_fn(env, state) if path_pure
                       else (yield from path_fn(env, state)))
                container = descend(container, key)
            value = (value_fn(env, state) if value_pure
                     else (yield from value_fn(env, state)))
            if last_c is None:
                if op:
                    raise WeblangError("compound assignment to append slot")
                container.append(value)
            else:
                last_pure, last_fn, _ = last_c
                key = (last_fn(env, state) if last_pure
                       else (yield from last_fn(env, state)))
                if op:
                    value = apply(container.get(key), value)
                container.set(key, value)

        return False, run_gen

    def _compile_return(self, stmt: Return) -> tuple[bool, Callable]:
        if stmt.expr is None:

            def run(env, state):
                state.steps += 1
                raise _ReturnSignal(None)

            return True, run
        pure, fn = self._compile_expr_copy(stmt.expr)
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
        def run(env, state):
            state.steps += steps
            return value

        return True, run, (value, steps)

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
            if self.use_env:

                def run(env, state):
                    state.steps += 1
                    return env.lookup(name)

            else:

                def run(env, state):
                    state.steps += 1
                    return env.get(name)

            return True, run, None
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

    def _compile_expr_copy(self, node: Node) -> tuple[bool, Callable]:
        """The :meth:`Interpreter._eval_copy` rule: a Var/Index read
        whose value is an array copies it into the new location."""
        pure, fn, _ = self._compile_expr(node)
        if type(node) not in (Var, Index):
            return pure, fn
        if pure:

            def run(env, state):
                value = fn(env, state)
                if isinstance(value, PhpArray):
                    return value.deep_copy()
                return value

            return True, run

        def run_gen(env, state):
            value = yield from fn(env, state)
            if isinstance(value, PhpArray):
                return value.deep_copy()
            return value

        return False, run_gen

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
        if left_pure and right_pure:

            def run(env, state):
                state.steps += 1
                return combine(left_fn(env, state), right_fn(env, state))

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            left = (left_fn(env, state) if left_pure
                    else (yield from left_fn(env, state)))
            right = (right_fn(env, state) if right_pure
                     else (yield from right_fn(env, state)))
            return combine(left, right)

        return False, run_gen, None

    def _compile_logic(self, node: BinOp) -> tuple[bool, Callable, None]:
        left_pure, left_fn, _ = self._compile_expr(node.left)
        right_pure, right_fn, _ = self._compile_expr(node.right)
        nid2 = node.nid * 2
        is_and = node.op == "&&"
        short_value = False if is_and else True
        if left_pure and right_pure:

            def run(env, state):
                state.steps += 1
                left = left_fn(env, state)
                take_right = truthy(left) if is_and else not truthy(left)
                digest = state.digest
                if digest is not None:
                    digest.update("sc", nid2 + int(take_right))
                if not take_right:
                    return short_value
                return truthy(right_fn(env, state))

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            left = (left_fn(env, state) if left_pure
                    else (yield from left_fn(env, state)))
            take_right = truthy(left) if is_and else not truthy(left)
            digest = state.digest
            if digest is not None:
                digest.update("sc", nid2 + int(take_right))
            if not take_right:
                return short_value
            right = (right_fn(env, state) if right_pure
                     else (yield from right_fn(env, state)))
            return truthy(right)

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
                return apply(fn(env, state))

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            value = yield from fn(env, state)
            return apply(value)

        return False, run_gen, None

    def _compile_ternary(self, node: Ternary) -> tuple[bool, Callable, None]:
        cond_pure, cond_fn, _ = self._compile_expr(node.cond)
        then_pure, then_fn, _ = self._compile_expr(node.then)
        other_pure, other_fn, _ = self._compile_expr(node.other)
        nid2 = node.nid * 2
        if cond_pure and then_pure and other_pure:

            def run(env, state):
                state.steps += 1
                taken = truthy(cond_fn(env, state))
                digest = state.digest
                if digest is not None:
                    digest.update("tern", nid2 + int(taken))
                if taken:
                    return then_fn(env, state)
                return other_fn(env, state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            cond = (cond_fn(env, state) if cond_pure
                    else (yield from cond_fn(env, state)))
            taken = truthy(cond)
            digest = state.digest
            if digest is not None:
                digest.update("tern", nid2 + int(taken))
            if taken:
                if then_pure:
                    return then_fn(env, state)
                return (yield from then_fn(env, state))
            if other_pure:
                return other_fn(env, state)
            return (yield from other_fn(env, state))

        return False, run_gen, None

    def _compile_index(self, node: Index) -> tuple[bool, Callable, None]:
        base_pure, base_fn, _ = self._compile_expr(node.base)
        index_pure, index_fn, _ = self._compile_expr(node.index)
        if base_pure and index_pure:

            def run(env, state):
                state.steps += 1
                base = base_fn(env, state)
                if isinstance(base, PhpArray):
                    return base.get(index_fn(env, state))
                if isinstance(base, str):
                    position = to_int(index_fn(env, state))
                    if 0 <= position < len(base):
                        return base[position]
                    return ""
                raise WeblangError("indexing a non-array value")

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            base = (base_fn(env, state) if base_pure
                    else (yield from base_fn(env, state)))
            if isinstance(base, PhpArray):
                index = (index_fn(env, state) if index_pure
                         else (yield from index_fn(env, state)))
                return base.get(index)
            if isinstance(base, str):
                index = (index_fn(env, state) if index_pure
                         else (yield from index_fn(env, state)))
                position = to_int(index)
                if 0 <= position < len(base):
                    return base[position]
                return ""
            raise WeblangError("indexing a non-array value")

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
                    if key_fn is None:
                        array.append(value)
                    else:
                        array.set(key_fn(env, state), value)
                return array

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            array = PhpArray()
            for key_c, (value_pure, value_fn) in items:
                value = (value_fn(env, state) if value_pure
                         else (yield from value_fn(env, state)))
                if key_c is None:
                    array.append(value)
                else:
                    key_pure, key_fn, _ = key_c
                    key = (key_fn(env, state) if key_pure
                           else (yield from key_fn(env, state)))
                    array.set(key, value)
            return array

        return False, run_gen, None

    # -- calls ------------------------------------------------------------

    def _compile_args(self, nodes: list[Node]) -> tuple[bool, Callable]:
        """Evaluate a call's arguments (with copy semantics) to a list."""
        compiled = [self._compile_expr_copy(arg) for arg in nodes]
        if all(pure for pure, _ in compiled):
            fns = [fn for _, fn in compiled]

            def run(env, state):
                return [fn(env, state) for fn in fns]

            return True, run

        def run_gen(env, state):
            values = []
            for pure, fn in compiled:
                values.append(fn(env, state) if pure
                              else (yield from fn(env, state)))
            return values

        return False, run_gen

    def _compile_call(self, node: Call) -> tuple[bool, Callable, None]:
        name = node.name
        args_pure, args_fn = self._compile_args(node.args)
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
                result = yield NondetIntent(name, tuple(args))
                return result

            return False, run_gen, None
        func = self.funcs.get(name)
        if func is not None:
            return self._compile_user_call(func, args_pure, args_fn)
        builtin = PURE_BUILTINS.get(name)
        if builtin is not None:
            if args_pure:

                def run(env, state):
                    state.steps += 1
                    return builtin(*args_fn(env, state))

                return True, run, None

            def run_gen(env, state):
                state.steps += 1
                args = yield from args_fn(env, state)
                return builtin(*args)

            return False, run_gen, None

        # Undefined function: arguments evaluate first, like the
        # interpreter, then the call raises.
        if args_pure:

            def run(env, state):
                state.steps += 1
                args_fn(env, state)
                raise WeblangError(f"call to undefined function {name}()")

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            yield from args_fn(env, state)
            raise WeblangError(f"call to undefined function {name}()")

        return False, run_gen, None

    def _compile_request_input(
        self, name: str, args_pure: bool, args_fn: Callable
    ) -> tuple[bool, Callable, None]:
        attr = REQUEST_INPUTS[name]

        def finish(args, state):
            if len(args) not in (1, 2):
                raise WeblangError(f"{name}() expects 1 or 2 arguments")
            key = to_str(args[0])
            default = args[1] if len(args) == 2 else None
            return getattr(state.request, attr).get(key, default)

        if args_pure:

            def run(env, state):
                state.steps += 1
                return finish(args_fn(env, state), state)

            return True, run, None

        def run_gen(env, state):
            state.steps += 1
            args = yield from args_fn(env, state)
            return finish(args, state)

        return False, run_gen, None

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

        def session_register(state):
            cookie = state.request.cookies.get(session_cookie)
            if cookie is None:
                raise WeblangError(
                    "session_get/session_put without a session cookie"
                )
            return f"reg:sess:{cookie}"

        if name in ("db_query", "db_exec"):

            def op(args, state):
                check_args(args, 1)
                sql = to_str(args[0])
                result = yield StateOpIntent("db_statement", db_name,
                                             (sql,))
                return convert(name, result)

        elif name == "db_begin":

            def op(args, state):
                check_args(args, 0)
                if state.in_tx:
                    raise WeblangError(
                        "nested transactions are not allowed"
                    )
                yield StateOpIntent("db_begin", db_name, ())
                state.in_tx = True
                return None

        elif name == "db_commit":

            def op(args, state):
                check_args(args, 0)
                if not state.in_tx:
                    raise WeblangError("db_commit() without a transaction")
                result = yield StateOpIntent("db_commit", db_name, ())
                state.in_tx = False
                return bool(result)

        elif name == "db_rollback":

            def op(args, state):
                check_args(args, 0)
                if not state.in_tx:
                    raise WeblangError(
                        "db_rollback() without a transaction"
                    )
                yield StateOpIntent("db_rollback", db_name, ())
                state.in_tx = False
                return None

        elif name == "kv_get":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 1)
                key = to_str(args[0])
                result = yield StateOpIntent("kv_get", kv_name, (key,))
                return thaw_value(result)

        elif name == "kv_set":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 2)
                key = to_str(args[0])
                value = freeze_value(args[1])
                yield StateOpIntent("kv_set", kv_name, (key, value))
                return None

        elif name == "reg_read":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 1)
                register = f"reg:g:{to_str(args[0])}"
                result = yield StateOpIntent("register_read", register, ())
                return thaw_value(result)

        elif name == "reg_write":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 2)
                register = f"reg:g:{to_str(args[0])}"
                value = freeze_value(args[1])
                yield StateOpIntent("register_write", register, (value,))
                return None

        elif name == "session_get":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 0)
                register = session_register(state)
                result = yield StateOpIntent("register_read", register, ())
                return thaw_value(result)

        elif name == "session_put":

            def op(args, state):
                if state.in_tx:
                    raise WeblangError(
                        f"{name}() inside a DB transaction violates the "
                        "object model"
                    )
                check_args(args, 1)
                register = session_register(state)
                value = freeze_value(args[0])
                yield StateOpIntent("register_write", register, (value,))
                return None

        else:  # pragma: no cover - STATE_BUILTINS is a fixed set

            def op(args, state):
                raise WeblangError(f"unknown state builtin {name}")
                yield  # unreachable; keeps this a generator

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
            service = "email" if is_email else to_str(args[0])
            payload = args if is_email else args[1:]
            content = tuple(freeze_value(value) for value in payload)
            yield ExternalIntent(service, content)
            return True

        return False, run_gen, None


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
    """One compiled script.  :meth:`run` has the exact generator
    contract of :meth:`repro.lang.interp.Interpreter.run`."""

    __slots__ = ("name", "_body_pure", "_body_fn")

    def __init__(self, name: str, body_pure: bool, body_fn: Callable):
        self.name = name
        self._body_pure = body_pure
        self._body_fn = body_fn

    def run(self, request: Request, record_flow: bool = True):
        digest = FlowDigest() if record_flow else None
        if digest is not None:
            digest.update_str(self.name)
        state = _State(request, digest)
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
        flow_tag = digest.hexdigest() if digest is not None else None
        return RunOutput("".join(state.output), flow_tag, state.steps)


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
    process — including from pool worker processes after they unpickle
    the application once — reuses the compiled closures.  Nothing is
    stored on the program object itself, so programs still pickle
    cleanly across spawn pools.
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
    """Drop-in replacement for :class:`~repro.lang.interp.Interpreter`
    that runs compiled programs (compiling on first use, cached)."""

    def __init__(
        self,
        db_name: str = "db:main",
        kv_name: str = "kv:apc",
        session_cookie: str = "sess",
        record_flow: bool = True,
    ):
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        self.record_flow = record_flow

    def run(self, program: Program, request: Request):
        compiled = compiled_for(program, self.db_name, self.kv_name,
                                self.session_cookie)
        return compiled.run(request, self.record_flow)
