"""The accelerated, SIMD-on-demand weblang interpreter (acc-PHP analog).

One instance of :meth:`AccInterpreter.run_group` logically executes *all*
requests of a control-flow group together (§3.1):

* instructions whose operands are identical across the group execute once
  (**univalent** execution);
* instructions with differing operands execute componentwise
  (**multivalent**) over :class:`~repro.multivalue.MultiValue` vectors,
  with scalar expansion of univalue operands and collapse of uniform
  results (Figure 2);
* request inputs, simulated object reads, and recorded non-determinism are
  the only sources of multivalues;
* a branch whose condition differs across the group is a **divergence**
  (the groups were wrong): the interpreter raises
  :class:`~repro.common.errors.DivergenceError` and the re-execution driver
  rejects (strict SSCO) or retries the requests individually (OROCHI's
  fallback, also used for unsupported multivalue cases via
  :class:`~repro.common.errors.MultivalueFallback`).

Like the plain interpreter, execution is a generator: state operations
yield :class:`GroupStateOpIntent` (per-request operands, §3.3's "for all
rid in the group" loop lives in the driver) and non-deterministic built-ins
yield :class:`GroupNondetIntent`.

Array semantics: weblang arrays are values (copied on assignment, argument
passing, and foreach binding — the PHP rule), implemented identically here
and in the plain interpreter.  Under SIMD execution this gives a key
invariant: the per-slot component trees of a multivalue are fully disjoint,
because expansion and per-slot stores always deep-project (§4.3's "deep
copy ... the objects were no longer equivalent").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    DivergenceError,
    MultivalueFallback,
    WeblangError,
)
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
from repro.lang.builtins import (
    EXTERNAL_BUILTINS,
    NONDET_BUILTINS,
    PURE_BUILTINS,
    STATE_BUILTINS,
)
from repro.lang.interp import (
    _MAX_CALL_DEPTH,
    REQUEST_INPUTS,
    Interpreter,
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
from repro.multivalue.multivalue import (
    MultiValue,
    components,
    make_multi,
)
from repro.trace.events import Request


@dataclass
class GroupStateOpIntent:
    """A state operation issued by the whole group.

    ``objs[i]`` / ``args[i]`` are the object name and operands of request
    ``i``'s operation (they can differ: e.g. session registers are named by
    each request's cookie; SQL text can embed per-request values).
    """

    kind: str
    objs: list[str]
    args: list[tuple]


@dataclass
class GroupNondetIntent:
    """A non-deterministic built-in invoked by the whole group."""

    func: str
    args: list[tuple]


@dataclass
class GroupExternalIntent:
    """An outbound external request issued by the whole group (§5.5
    extension); per-slot services and contents."""

    services: list[str]
    contents: list[tuple]


@dataclass
class GroupRunOutput:
    """Result of re-executing one control-flow group."""

    bodies: list[str]
    steps: int  # total "instructions" (AST evaluations)
    multi_steps: int  # instructions that produced a multivalue


class _GroupState:
    __slots__ = ("requests", "size", "output", "in_tx", "steps",
                 "multi_steps", "funcs", "depth")

    def __init__(self, requests: list[Request], funcs: dict[str, FuncDecl]):
        self.requests = requests
        self.size = len(requests)
        self.output: list[object] = []  # str or MultiValue of str
        self.in_tx = False
        self.steps = 0
        self.multi_steps = 0
        self.funcs = funcs
        self.depth = 0


def project(value: object, slot: int, copy_arrays: bool = False) -> object:
    """Per-slot view of a value.

    MultiValues yield their component; arrays containing multivalues are
    rebuilt with projected cells.  ``copy_arrays`` forces fresh copies of
    all arrays, guaranteeing the result shares no structure with other
    slots (used before per-slot mutation).
    """
    if isinstance(value, MultiValue):
        return project(value.values[slot], slot, copy_arrays)
    if isinstance(value, PhpArray):
        if copy_arrays or _contains_multi(value):
            out = PhpArray()
            out._next_index = value._next_index
            for key, cell in value.items():
                out.data[key] = project(cell, slot, copy_arrays)
            return out
        return value
    return value


def _contains_multi(array: PhpArray) -> bool:
    for cell in array.data.values():
        if isinstance(cell, MultiValue):
            return True
        if isinstance(cell, PhpArray) and _contains_multi(cell):
            return True
    return False


class AccInterpreter:
    """SIMD-on-demand interpreter over a control-flow group."""

    def __init__(
        self,
        db_name: str = "db:main",
        kv_name: str = "kv:apc",
        session_cookie: str = "sess",
        collapse_enabled: bool = True,
    ):
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        # Ablation hook: with collapse disabled, every multivalue stays a
        # multivalue even when uniform (benchmarks measure the cost).
        self.collapse_enabled = collapse_enabled

    def _merge(self, values: list[object]) -> object:
        if self.collapse_enabled:
            return make_multi(values)
        return MultiValue(values)

    def _merge_read(self, values: list[object], state: _GroupState) -> object:
        """Merge what the slots read (inputs, object reads); a result
        that stays a multivalue counts as a multivalent step."""
        merged = self._merge(values)
        if isinstance(merged, MultiValue):
            state.multi_steps += 1
        return merged

    # -- entry point --------------------------------------------------------

    def run_group(self, program: Program, requests: list[Request]):
        """Superposed execution of ``requests`` (all share control flow).

        Generator: yields Group*Intents, returns :class:`GroupRunOutput`.
        Raises :class:`DivergenceError` if control flow differs across the
        group and :class:`MultivalueFallback` on unsupported SIMD cases.
        """
        state = _GroupState(list(requests), program.functions)
        env = _Env()
        try:
            yield from self._exec_block(program.body, env, state)
        except _ReturnSignal:
            pass
        except (_BreakSignal, _ContinueSignal):
            raise WeblangError("break/continue outside loop") from None
        if state.in_tx:
            raise WeblangError("script ended with an open transaction")
        bodies = self._render_output(state)
        return GroupRunOutput(bodies, state.steps, state.multi_steps)

    def _render_output(self, state: _GroupState) -> list[str]:
        buffers: list[list[str]] = [[] for _ in range(state.size)]
        for part in state.output:
            if isinstance(part, MultiValue):
                for slot in range(state.size):
                    buffers[slot].append(to_str(part.values[slot]))
            else:
                for slot in range(state.size):
                    buffers[slot].append(part)
        return ["".join(buffer) for buffer in buffers]

    # -- uniformity helpers --------------------------------------------------

    def _uniform_truth(self, value: object, where: str) -> bool:
        """Truthiness of a condition; divergence if it differs by slot."""
        if isinstance(value, MultiValue):
            truths = [truthy(component) for component in value.values]
            first = truths[0]
            if any(t != first for t in truths[1:]):
                raise DivergenceError(f"branch condition diverges at {where}")
            return first
        return truthy(value)

    # -- statements -----------------------------------------------------------

    def _exec_block(self, stmts: list[Node], env: _Env, state: _GroupState):
        for stmt in stmts:
            yield from self._exec_stmt(stmt, env, state)

    def _exec_stmt(self, stmt: Node, env: _Env, state: _GroupState):
        state.steps += 1
        kind = type(stmt)
        if kind is Assign:
            value = yield from self._eval_copy(stmt.expr, env, state)
            if stmt.op:
                current = env.lookup(stmt.name)
                value = self._binop_multi(compound(stmt.op), current, value,
                                          state)
            env.store(stmt.name, value)
            return
        if kind is ExprStmt:
            yield from self._eval(stmt.expr, env, state)
            return
        if kind is Echo:
            for expr in stmt.exprs:
                value = yield from self._eval(expr, env, state)
                if isinstance(value, MultiValue):
                    state.multi_steps += 1
                    state.output.append(
                        MultiValue(
                            [to_str(component) for component in value.values]
                        )
                    )
                else:
                    state.output.append(to_str(value))
            return
        if kind is If:
            taken = -1
            for index, (cond, _body) in enumerate(stmt.branches):
                value = yield from self._eval(cond, env, state)
                if self._uniform_truth(value, f"if#{stmt.nid}"):
                    taken = index
                    break
            if taken >= 0:
                yield from self._exec_block(stmt.branches[taken][1], env,
                                            state)
            elif stmt.else_body is not None:
                yield from self._exec_block(stmt.else_body, env, state)
            return
        if kind is While:
            while True:
                value = yield from self._eval(stmt.cond, env, state)
                if not self._uniform_truth(value, f"while#{stmt.nid}"):
                    break
                try:
                    yield from self._exec_block(stmt.body, env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if kind is Foreach:
            yield from self._exec_foreach(stmt, env, state)
            return
        if kind is IndexAssign:
            yield from self._exec_index_assign(stmt, env, state)
            return
        if kind is Return:
            value = None
            if stmt.expr is not None:
                value = yield from self._eval_copy(stmt.expr, env, state)
            raise _ReturnSignal(value)
        if kind is GlobalDecl:
            for name in stmt.names:
                env.global_names.add(name)
            return
        if kind is Break:
            raise _BreakSignal()
        if kind is Continue:
            raise _ContinueSignal()
        raise WeblangError(f"unknown statement {kind.__name__}")

    def _exec_foreach(self, stmt: Foreach, env: _Env, state: _GroupState):
        subject = yield from self._eval(stmt.subject, env, state)
        if isinstance(subject, MultiValue):
            arrays = []
            for component in subject.values:
                if not isinstance(component, PhpArray):
                    raise WeblangError("foreach over a non-array")
                arrays.append(component)
            length = len(arrays[0])
            if any(len(array) != length for array in arrays[1:]):
                raise DivergenceError(
                    f"foreach trip count diverges at foreach#{stmt.nid}"
                )
            item_lists = [array.items() for array in arrays]
            for position in range(length):
                keys = [items[position][0] for items in item_lists]
                values = [
                    self._copy_component(items[position][1])
                    for items in item_lists
                ]
                if stmt.key_var is not None:
                    env.store(stmt.key_var, self._merge(list(keys)))
                env.store(stmt.val_var, self._merge(values))
                try:
                    yield from self._exec_block(stmt.body, env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if not isinstance(subject, PhpArray):
            raise WeblangError("foreach over a non-array")
        for key, value in subject.items():
            if stmt.key_var is not None:
                env.store(stmt.key_var, key)
            env.store(stmt.val_var, self._copy_component(value))
            try:
                yield from self._exec_block(stmt.body, env, state)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    @staticmethod
    def _copy_component(value: object) -> object:
        """Value-semantics copy for foreach bindings."""
        if isinstance(value, PhpArray):
            return value.deep_copy()
        if isinstance(value, MultiValue):
            return MultiValue(
                [
                    c.deep_copy() if isinstance(c, PhpArray) else c
                    for c in value.values
                ]
            )
        return value

    # -- index assignment (§4.3 container rules) ----------------------------

    def _exec_index_assign(
        self, stmt: IndexAssign, env: _Env, state: _GroupState
    ):
        value = yield from self._eval_copy(stmt.expr, env, state)
        keys: list[object] = []
        for path_expr in stmt.path:
            if path_expr is None:
                keys.append(None)  # append slot
            else:
                key = yield from self._eval(path_expr, env, state)
                keys.append(key)
        root = env.lookup(stmt.name)
        if root is None:
            root = PhpArray()
            env.store(stmt.name, root)
        multivalued = (
            isinstance(root, MultiValue)
            or any(isinstance(key, MultiValue) for key in keys)
        )
        if not multivalued:
            # Fast univalent path; the stored value may itself be a
            # multivalue held in a cell ("a container's cells can hold
            # multivalues", §4.3).
            if not isinstance(root, PhpArray):
                raise WeblangError(
                    f"cannot index non-array variable ${stmt.name}"
                )
            self._plain_set(root, keys, value, stmt.op, state)
            if isinstance(value, MultiValue):
                state.multi_steps += 1
            return
        state.multi_steps += 1
        # Expansion: the containers are no longer equivalent across the
        # group.  Deep-project the root per slot, then apply each slot's
        # assignment to its own tree.
        if not isinstance(root, MultiValue):
            if not isinstance(root, PhpArray):
                raise WeblangError(
                    f"cannot index non-array variable ${stmt.name}"
                )
            root = MultiValue(
                [
                    project(root, slot, copy_arrays=True)
                    for slot in range(state.size)
                ]
            )
        for slot in range(state.size):
            slot_root = root.values[slot]
            if not isinstance(slot_root, PhpArray):
                raise WeblangError(
                    f"cannot index non-array variable ${stmt.name}"
                )
            slot_keys = [
                None if key is None else project(key, slot) for key in keys
            ]
            slot_value = project(value, slot, copy_arrays=True)
            self._plain_set(slot_root, slot_keys, slot_value, stmt.op, state)
        env.store(stmt.name, self._merge(list(root.values)))

    def _plain_set(
        self,
        container: PhpArray,
        keys: list[object],
        value: object,
        op: str,
        state: _GroupState,
    ) -> None:
        for key in keys[:-1]:
            if key is None:
                raise WeblangError("'[]' only allowed as the last index")
            if isinstance(key, MultiValue):  # pragma: no cover - guarded
                raise WeblangError("internal: multivalue key on plain path")
            inner = container.get(key)
            if inner is None:
                inner = PhpArray()
                container.set(key, inner)
            if isinstance(inner, MultiValue):
                # A univalue path ran into a multivalue cell holding arrays;
                # the caller must expand instead.  This only happens on the
                # fast path; trigger the general (fallback) machinery.
                raise MultivalueFallback(
                    "nested assignment through a multivalue cell"
                )
            if not isinstance(inner, PhpArray):
                raise WeblangError("cannot index into a scalar")
            container = inner
        last = keys[-1]
        if last is None:
            if op:
                raise WeblangError("compound assignment to append slot")
            container.append(value)
        else:
            if op:
                value = self._binop_multi(compound(op), container.get(last),
                                          value, state)
            container.set(last, value)

    # -- expressions -----------------------------------------------------------

    def _eval_copy(self, node: Node, env: _Env, state: _GroupState):
        """Evaluate with value-semantics copy when reading from a variable
        or cell (the assignment/argument-passing copy rule)."""
        value = yield from self._eval(node, env, state)
        if type(node) in (Var, Index):
            return self._copy_component(value)
        return value

    def _eval(self, node: Node, env: _Env, state: _GroupState):
        state.steps += 1
        kind = type(node)
        if kind is Lit:
            return node.value
        if kind is Var:
            value = env.lookup(node.name)
            if isinstance(value, MultiValue):
                state.multi_steps += 1
            return value
        if kind is BinOp:
            return (yield from self._eval_binop(node, env, state))
        if kind is Index:
            return (yield from self._eval_index(node, env, state))
        if kind is Call:
            return (yield from self._eval_call(node, env, state))
        if kind is UnOp:
            value = yield from self._eval(node.operand, env, state)
            apply = unop(node.op)
            if isinstance(value, MultiValue):
                state.multi_steps += 1
                return self._merge([apply(c) for c in value.values])
            return apply(value)
        if kind is Ternary:
            cond = yield from self._eval(node.cond, env, state)
            if self._uniform_truth(cond, f"ternary#{node.nid}"):
                return (yield from self._eval(node.then, env, state))
            return (yield from self._eval(node.other, env, state))
        if kind is ArrayLit:
            return (yield from self._eval_array_lit(node, env, state))
        raise WeblangError(f"unknown expression {kind.__name__}")

    def _eval_binop(self, node: BinOp, env: _Env, state: _GroupState):
        op = node.op
        if op in ("&&", "||"):
            left = yield from self._eval(node.left, env, state)
            left_truth = self._uniform_truth(left, f"logic#{node.nid}")
            if op == "&&":
                if not left_truth:
                    return False
                right = yield from self._eval(node.right, env, state)
                return self._uniform_truth(right, f"logic#{node.nid}")
            if left_truth:
                return True
            right = yield from self._eval(node.right, env, state)
            return self._uniform_truth(right, f"logic#{node.nid}")
        left = yield from self._eval(node.left, env, state)
        right = yield from self._eval(node.right, env, state)
        return self._binop_multi(binop(op), left, right, state)

    def _binop_multi(self, apply, left: object, right: object,
                     state: _GroupState) -> object:
        """``apply`` (an operator-table entry, looked up once per step)
        over the operands: once if both are univalues, once per slot —
        with scalar expansion — otherwise."""
        if isinstance(left, MultiValue) or isinstance(right, MultiValue):
            state.multi_steps += 1
            return self._merge(list(map(
                apply, components(left, state.size),
                components(right, state.size),
            )))
        return apply(left, right)

    def _eval_index(self, node: Index, env: _Env, state: _GroupState):
        base = yield from self._eval(node.base, env, state)
        index = yield from self._eval(node.index, env, state)
        if isinstance(base, MultiValue) or isinstance(index, MultiValue):
            state.multi_steps += 1
            bases = components(base, state.size)
            indexes = components(index, state.size)
            return self._merge(
                [
                    self._index_one(bases[slot], indexes[slot])
                    for slot in range(state.size)
                ]
            )
        result = self._index_one(base, index)
        if isinstance(result, MultiValue):
            state.multi_steps += 1
        return result

    @staticmethod
    def _index_one(base: object, index: object) -> object:
        if isinstance(base, PhpArray):
            return base.get(index)
        if isinstance(base, str):
            position = to_int(index)
            if 0 <= position < len(base):
                return base[position]
            return ""
        raise WeblangError("indexing a non-array value")

    def _eval_array_lit(self, node: ArrayLit, env: _Env, state: _GroupState):
        keys: list[object] = []
        values: list[object] = []
        for key_expr, value_expr in node.items:
            if key_expr is None:
                keys.append(None)
            else:
                keys.append((yield from self._eval(key_expr, env, state)))
            values.append((yield from self._eval_copy(value_expr, env,
                                                      state)))
        if any(isinstance(key, MultiValue) for key in keys):
            # A literal with per-request keys: the array itself becomes a
            # multivalue of per-slot arrays.
            state.multi_steps += 1
            slot_arrays: list[object] = []
            for slot in range(state.size):
                array = PhpArray()
                for key, value in zip(keys, values):
                    slot_value = project(value, slot, copy_arrays=True)
                    if key is None:
                        array.append(slot_value)
                    else:
                        array.set(project(key, slot), slot_value)
                slot_arrays.append(array)
            return self._merge(slot_arrays)
        array = PhpArray()
        for key, value in zip(keys, values):
            if key is None:
                array.append(value)
            else:
                array.set(key, value)
        return array

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: Call, env: _Env, state: _GroupState):
        name = node.name
        args: list[object] = []
        for arg in node.args:
            value = yield from self._eval_copy(arg, env, state)
            args.append(value)
        if name in REQUEST_INPUTS:
            return self._request_input(name, args, state)
        if name in STATE_BUILTINS:
            return (yield from self._state_call(name, args, state))
        if name in EXTERNAL_BUILTINS:
            if state.in_tx:
                raise WeblangError(
                    f"{name}() inside a DB transaction violates the "
                    "object model"
                )
            services = []
            contents = []
            for slot in range(state.size):
                slot_args = [project(arg, slot) for arg in args]
                if name == "send_email":
                    services.append("email")
                    payload = slot_args
                else:
                    services.append(to_str(slot_args[0]))
                    payload = slot_args[1:]
                contents.append(
                    tuple(freeze_value(value) for value in payload)
                )
            yield GroupExternalIntent(services, contents)
            return True
        if name in NONDET_BUILTINS:
            per_slot_args = self._per_slot_args(args, state)
            results = yield GroupNondetIntent(name, per_slot_args)
            return self._merge(list(results))
        func = state.funcs.get(name)
        if func is not None:
            return (yield from self._call_user(func, args, env, state))
        pure = PURE_BUILTINS.get(name)
        if pure is not None:
            return self._call_pure(name, pure, args, state)
        raise WeblangError(f"call to undefined function {name}()")

    def _per_slot_args(self, args: list[object],
                       state: _GroupState) -> list[tuple]:
        return [
            tuple(project(arg, slot) for arg in args)
            for slot in range(state.size)
        ]

    def _call_pure(self, name: str, func, args: list[object],
                   state: _GroupState) -> object:
        needs_split = any(
            isinstance(arg, MultiValue)
            or (isinstance(arg, PhpArray) and _contains_multi(arg))
            for arg in args
        )
        if not needs_split:
            return func(*args)
        # Built-in splitting (§4.3): one univalue invocation per slot.
        state.multi_steps += 1
        results = []
        for slot in range(state.size):
            slot_args = [project(arg, slot, copy_arrays=True) for arg in args]
            results.append(func(*slot_args))
        return self._merge(results)

    def _request_input(self, which: str, args: list[object],
                       state: _GroupState) -> object:
        if len(args) not in (1, 2):
            raise WeblangError(f"{which}() expects 1 or 2 arguments")
        if any(isinstance(arg, MultiValue) for arg in args):
            raise MultivalueFallback(f"{which}() with multivalue arguments")
        key = to_str(args[0])
        default = args[1] if len(args) == 2 else None
        values = [
            getattr(request, REQUEST_INPUTS[which]).get(key, default)
            for request in state.requests
        ]
        return self._merge_read(values, state)

    def _call_user(self, func: FuncDecl, args: list[object], env: _Env,
                   state: _GroupState):
        if state.depth >= _MAX_CALL_DEPTH:
            raise WeblangError("maximum call depth exceeded")
        frame = _Env(env.globals)
        for index, param in enumerate(func.params):
            frame.vars[param] = args[index] if index < len(args) else None
        state.depth += 1
        try:
            yield from self._exec_block(func.body, frame, state)
            return None
        except _ReturnSignal as signal:
            return signal.value
        finally:
            state.depth -= 1

    # -- state-operation built-ins ----------------------------------------

    def _state_call(self, name: str, args: list[object], state: _GroupState):
        size = state.size
        if name in ("db_query", "db_exec"):
            if len(args) != 1:
                raise WeblangError(f"{name}() expects 1 argument")
            sqls = [
                to_str(project(args[0], slot)) for slot in range(size)
            ]
            results = yield GroupStateOpIntent(
                "db_statement",
                [self.db_name] * size,
                [(sql,) for sql in sqls],
            )
            return self._merge_read(
                [Interpreter._convert_db_result(name, result)
                 for result in results], state)
        if name == "db_begin":
            if state.in_tx:
                raise WeblangError("nested transactions are not allowed")
            yield GroupStateOpIntent(
                "db_begin", [self.db_name] * size, [()] * size
            )
            state.in_tx = True
            return None
        if name == "db_commit":
            if not state.in_tx:
                raise WeblangError("db_commit() without a transaction")
            results = yield GroupStateOpIntent(
                "db_commit", [self.db_name] * size, [()] * size
            )
            state.in_tx = False
            return self._merge([bool(result) for result in results])
        if name == "db_rollback":
            if not state.in_tx:
                raise WeblangError("db_rollback() without a transaction")
            yield GroupStateOpIntent(
                "db_rollback", [self.db_name] * size, [()] * size
            )
            state.in_tx = False
            return None
        if state.in_tx:
            raise WeblangError(
                f"{name}() inside a DB transaction violates the object model"
            )
        if name == "kv_get":
            keys = [
                to_str(project(args[0], slot)) for slot in range(size)
            ]
            results = yield GroupStateOpIntent(
                "kv_get", [self.kv_name] * size, [(key,) for key in keys]
            )
            return self._merge_read(
                [thaw_value(result) for result in results], state)
        if name == "kv_set":
            keys = [to_str(project(args[0], slot)) for slot in range(size)]
            values = [
                freeze_value(project(args[1], slot)) for slot in range(size)
            ]
            yield GroupStateOpIntent(
                "kv_set",
                [self.kv_name] * size,
                [(key, value) for key, value in zip(keys, values)],
            )
            return None
        if name == "reg_read":
            registers = [
                f"reg:g:{to_str(project(args[0], slot))}"
                for slot in range(size)
            ]
            results = yield GroupStateOpIntent(
                "register_read", registers, [()] * size
            )
            return self._merge_read(
                [thaw_value(result) for result in results], state)
        if name == "reg_write":
            registers = [
                f"reg:g:{to_str(project(args[0], slot))}"
                for slot in range(size)
            ]
            values = [
                freeze_value(project(args[1], slot)) for slot in range(size)
            ]
            yield GroupStateOpIntent(
                "register_write", registers, [(value,) for value in values]
            )
            return None
        if name == "session_get":
            registers = self._session_registers(state)
            results = yield GroupStateOpIntent(
                "register_read", registers, [()] * size
            )
            return self._merge_read(
                [thaw_value(result) for result in results], state)
        if name == "session_put":
            registers = self._session_registers(state)
            values = [
                freeze_value(project(args[0], slot)) for slot in range(size)
            ]
            yield GroupStateOpIntent(
                "register_write", registers, [(value,) for value in values]
            )
            return None
        raise WeblangError(f"unknown state builtin {name}")  # pragma: no cover

    def _session_registers(self, state: _GroupState) -> list[str]:
        registers = []
        for request in state.requests:
            cookie = request.cookies.get(self.session_cookie)
            if cookie is None:
                raise WeblangError(
                    "session_get/session_put without a session cookie"
                )
            registers.append(f"reg:sess:{cookie}")
        return registers
