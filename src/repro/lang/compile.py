"""The compiled weblang engine, univalent and multivalent (acc-PHP analog).

The plain interpreter (:mod:`repro.lang.interp`) re-dispatches on node
type at every step and builds a Python generator frame for every AST
node it walks.  The same few programs run thousands of times — served
once per request, re-executed at audit time — so this module compiles a
:class:`~repro.lang.ast.Program` once into generated Python functions
(its statements) over pre-bound Python closures (its expressions).  The
server runs them one request at a time — a group of one — with the
control-flow digest on; at audit time they run a whole control-flow
group at a time (§3.1, §4.2-4.3):

* instructions whose operands are identical across the group execute
  once (**univalent** execution), at the cost of a Python operation or
  one closure call;
* an instruction whose operand *is* a :class:`~repro.multivalue.MultiValue`
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

:meth:`CompiledProgram.run_group` is a generator that speaks the
oracle's intents (:mod:`repro.lang.interp`) with one operand per slot:
state operations yield :class:`StateOpIntent` (§3.3's "for all rid in
the group" loop lives in the driver, :func:`repro.core.ooo.drive`),
non-deterministic built-ins :class:`NondetIntent`, outbound requests
:class:`ExternalIntent`; it returns :class:`RunOutput`.  A request
served or re-run alone is a group of one (:meth:`CompInterpreter.run`).

How it is built:

* **statements** are generated Python source (:mod:`repro.lang.regions`),
  one function a body (a user function's, the script's), which runs
  expressions in line where it can; a body that may perform a
  shared-object operation, a non-deterministic built-in or an external
  call (which functions may comes from the purity pass,
  :class:`repro.lang.analysis.Purity`) is a generator function that
  runs each operand that may yield as ``yield from`` its closure;
* **expressions** are ``fn(env, state)`` closures, plain when pure and
  generators that ``yield`` the intents when not: what generated code
  falls back on.  Both variants of a node share the helpers that do the
  per-class work (:mod:`repro.lang.simd`, with the run's state);
* **constant subtrees** fold at compile time, preserving the exact
  instruction count the folded nodes would have contributed; an array
  literal's int / str constant keys are normalised, and one of
  constants is built once (each evaluation a copy-on-write handle);
* **branch sites** fold a constant per arm
  (:func:`~repro.common.digest.branch_mix`: what
  :meth:`FlowDigest.update <repro.common.digest.FlowDigest.update>`
  would xor in) into ``state.flow`` — an int, ``None`` when not
  recording (§4.3);
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

from repro.common.digest import branch_mix, fnv1a
from repro.common.errors import MultivalueFallback, WeblangError
from repro.lang.ast import (
    ArrayLit,
    BinOp,
    Call,
    GlobalDecl,
    Index,
    IndexAssign,
    Lit,
    Node,
    Program,
    Ternary,
    UnOp,
    Var,
)
from repro.lang import regions
from repro.lang.analysis import Purity, call_kind, nodes
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
    _add_item,
    _assign_cell,
    _binop,
    _call_builtin,
    _copy_value,
    _expand,
    _fold,
    _frozen,
    _index,
    _literal,
    _merged_read,
    _merged_replies,
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
        #: Which functions and nodes may yield an intent: the one
        #: purity decision (repro.lang.analysis), needed only while
        #: building the closures.
        self.purity = Purity(program)
        #: A variable read or a constant is the same closure wherever
        #: it occurs: (name,) / (type, repr, steps).
        self.leaves: dict[tuple, tuple] = {}
        #: A constant array literal's closure -> (its array, steps).
        self.literals: dict[Callable, tuple[PhpArray, int]] = {}
        #: (id(node), copy) -> (node, its compiled form).
        self.exprs: dict[tuple, tuple] = {}
        #: id(node) -> (node, what regions.py's walk found of it).
        self.walks: dict[int, tuple] = {}
        #: Whether the scope being compiled is the top level, whose
        #: frame is the globals, and the globals a function may write.
        self.top = False
        self.shared: set[str] = set()

    # -- driver -------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        program = self.program
        for name, decl in program.functions.items():
            self.funcs[name] = _CompiledFunc(
                name, decl.params,
                pure=self.purity.function_pure(name),
                use_env=_scope_uses_global(decl.body),
            )
            if self.funcs[name].use_env:
                self.shared.update(
                    var for item in nodes(decl.body)
                    if type(item) is GlobalDecl for var in item.names)
        for name, decl in program.functions.items():
            func = self.funcs[name]
            self.use_env = func.use_env
            pure, fn = regions.region(self, decl.body, False, whole=True)
            # Callers compiled before this body bound ``func.pure``: a
            # body that disagrees would turn their plain call into a
            # ``yield from``, or the reverse.
            if pure != func.pure:
                raise AssertionError(
                    f"{name}(): purity pass says pure={func.pure}, "
                    f"compiled body pure={pure}")
            func.run = fn
        self.use_env = False  # top level: vars *are* globals
        self.top = True
        body_pure, body_fn = regions.region(self, program.body, True)
        return CompiledProgram(program.name, body_pure, body_fn)

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
        """Compile one expression, once (a region asks for the closures
        of the subtrees it runs in line, and falls back on them).

        Returns ``(pure, fn, const)``: ``fn(env, state)`` is a plain
        closure when pure, a generator closure otherwise; ``const`` is
        ``(value, steps)`` when the subtree folded to a compile-time
        constant (``fn`` then credits the folded nodes' instruction
        count in one add).
        """
        key = (id(node), False)
        if key not in self.exprs:  # the node is kept: its id stays its own
            self.exprs[key] = (node, self._expr(node))
        return self.exprs[key][1]

    def _expr(self, node: Node) -> tuple[bool, Callable, tuple | None]:
        kind = type(node)
        if kind is Lit:
            return self._const(node.value, 1)
        if kind is Var:
            key = (node.name,)
            if key not in self.leaves:

                def run(env, state, name=node.name):
                    state.steps += 1
                    value = env.get(name)
                    if type(value) is MultiValue:
                        state.multivalent(len(value.values))
                    return value

                self.leaves[key] = (True, run, None)
            return self.leaves[key]
        return getattr(self, f"_compile_{kind.__name__.lower()}")(node)

    def _operand(self, node: Node, copy: bool = False) -> tuple:
        """``node`` as code that may yield evaluates it: where it is pure
        (and no constant), one generated function that runs it in line
        where it can (:func:`regions.expression`), else its closures."""
        compiled = (self._compile_expr_copy if copy
                    else self._compile_expr)(node)
        if not compiled[0] or compiled[2] is not None or self.use_env:
            return compiled
        key = (id(node), copy, "run")
        if key not in self.exprs:
            made = regions.expression(self, [node], copy)
            self.exprs[key] = (node, compiled if made is None
                               else (True, made, None))
        return self.exprs[key][1]

    def _compile_expr_copy(
        self, node: Node
    ) -> tuple[bool, Callable, tuple | None]:
        """:meth:`_compile_expr` under the :meth:`Interpreter._eval_copy`
        rule: a Var/Index read whose value is an array (or a multivalue,
        which may hold one per slot) copies it into the new location."""
        key = (id(node), True)
        if key not in self.exprs:
            self.exprs[key] = (node, self._expr_copy(node))
        return self.exprs[key][1]

    def _expr_copy(self, node: Node) -> tuple[bool, Callable, tuple | None]:
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
        if left_pure and right_pure:

            def run(env, state):
                state.steps += 1
                return _binop(combine, left_fn(env, state),
                              right_fn(env, state), state)

            return True, run, None
        left_fn, right_fn = self._operand(node.left)[1], \
            self._operand(node.right)[1]

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
                take_right = _truth(left, where) is is_and
                _fold(state, right_mix if take_right else skip_mix)
                if not take_right:
                    return not is_and
                return _unop(truthy, right_fn(env, state), state)

            return True, run, None
        left_fn, right_fn = self._operand(node.left)[1], \
            self._operand(node.right)[1]

        def run_gen(env, state):
            state.steps += 1
            left = (left_fn(env, state) if left_pure
                    else (yield from left_fn(env, state)))
            take_right = _truth(left, where) is is_and
            _fold(state, right_mix if take_right else skip_mix)
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
                taken = _truth(cond, where)
                _fold(state, then_mix if taken else other_mix)
                if taken:
                    return then_fn(env, state)
                return other_fn(env, state)

            return True, run, None
        cond_fn, then_fn, other_fn = (self._operand(child)[1] for child in (
            node.cond, node.then, node.other))

        def run_gen(env, state):
            state.steps += 1
            cond = (cond_fn(env, state) if cond_pure
                    else (yield from cond_fn(env, state)))
            taken = _truth(cond, where)
            _fold(state, then_mix if taken else other_mix)
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
        indexable = (PhpArray, str, MultiValue)
        if base_pure and index_pure:

            def run(env, state):
                state.steps += 1
                base = base_fn(env, state)
                if not isinstance(base, indexable):
                    raise WeblangError("indexing a non-array value")
                return _index(base, index_fn(env, state), state)

            return True, run, None
        base_fn, index_fn = self._operand(node.base)[1], \
            self._operand(node.index)[1]

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

    def _literal_cells(self, node: ArrayLit) -> tuple | None:
        """Where each value of a literal whose keys are all int / str
        constants or ``[]`` lands — known now, and no value can make the
        array a list — as ``(normalised keys, next index, steps of the
        literal and its keys)``; ``None`` for any other literal."""
        keys = [_const_key(self._compile_expr(key) if key is not None
                           else None) for key, _ in node.items]
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
        cells = self._literal_cells(node) if all_pure else None
        if cells is not None:
            norms, top, steps = cells
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
        # Any other literal: its constant keys go in normalised.
        if not all_pure:
            items = [(self._operand(key) if key is not None else None,
                      self._operand(value, True))
                     for key, value in node.items]
        items = [(self._const(*const) if type(const) is tuple else key, value)
                 for (key, value), const in zip(items, keys)]
        if all_pure:
            pairs = [(None if key is None else key[1], value[1])
                     for key, value in items]

            def run(env, state):
                state.steps += 1
                array = PhpArray()
                for key_fn, value_fn in pairs:
                    value = value_fn(env, state)
                    array = _add_item(array, _APPEND if key_fn is None
                                      else key_fn(env, state), value, state)
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

    def _compile_args(self, node: Call) -> tuple[bool, Callable]:
        """Evaluate a call's arguments, with copy semantics, to a list:
        for a call that may yield, pure ones in one generated function
        (:func:`regions.expression`)."""
        compiled = [self._compile_expr_copy(arg) for arg in node.args]
        if all(pure for pure, _, _ in compiled):
            made = None if self.purity.pure(node) or self.use_env \
                else regions.expression(self, node.args, True, many=True)
            if made is not None:
                return True, made
            fns = [fn for _, fn, _ in compiled]

            def run(env, state):
                return [fn(env, state) for fn in fns]

            return True, run
        compiled = [self._operand(arg, True) for arg in node.args]

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

    def _builtin(self, node: Call) -> Callable | None:
        """The pure built-in ``node`` calls, if it calls one."""
        if call_kind(node.name, self.funcs) != "pure":
            return None
        return PURE_BUILTINS[node.name]

    def _compile_call(self, node: Call) -> tuple[bool, Callable, None]:
        name = node.name
        args_pure, args_fn = self._compile_args(node)
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
                results = yield NondetIntent(name, _rows(
                    [_slots(arg, state) for arg in args], state))
                return state.merge(list(results))

            return False, run_gen, None
        func = self.funcs.get(name)
        if func is not None:
            return self._compile_user_call(func, args_pure, args_fn)
        builtin = PURE_BUILTINS.get(name)
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
        :class:`StateOpIntent` carrying every slot's object name
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
                results = yield StateOpIntent(
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
                results = yield StateOpIntent(
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
                results = yield StateOpIntent(
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
            yield ExternalIntent(services, _rows(
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
    return any(type(item) is GlobalDecl for item in nodes(stmts))


class CompiledProgram:
    """One compiled script: :meth:`run_group` executes a control-flow
    group, a request alone as a group of one."""

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
        return RunOutput(_render(state), state.steps, state.multi_steps,
                         flow_tag, state.multi_steps * state.size,
                         state.multi_classes)


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
    a group (:meth:`run_group`) or — like
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
        """``request`` as a group of one, collapse always on, whatever
        :attr:`collapse_enabled` says: so it never makes a multivalue,
        nor raises :class:`MultivalueFallback` (demotions run this)."""
        return self._compiled(program).run_group(
            [request], record_flow=self.record_flow)

    def run_group(self, program: Program, requests: list[Request]):
        return self._compiled(program).run_group(
            requests, self.collapse_enabled, self.record_flow)
