"""The plain weblang interpreter: the language's reference semantics.

Nothing in production runs it — server and auditor both run the compiled
engine (:mod:`repro.lang.compile`), which must match this module bit for
bit.  It is the oracle: the ``interp`` backend, the re-execution of
``simple_audit`` and ``ooo_audit`` (both in :mod:`repro.core.pipeline`),
the differential tests.

Execution is a *generator*: the interpreter walks the AST and, whenever the
program performs a shared-object operation or a non-deterministic built-in,
it ``yield``\\ s an intent object and suspends.  The driver — the online
executor (:mod:`repro.server.executor`) or the audit-time out-of-order
re-executor (:mod:`repro.core.ooo`) — performs or simulates the operation
and ``send``\\ s the result back in.  This is how the paper's model of
"threads that block on atomic object operations" (§3.2) is realized: the
scheduler interleaves requests exactly at these yield points.  Both
engines speak the intents and :class:`RunOutput` defined here, with one
operand, reply and body per slot; a request run alone is a group of one.

When ``record_flow`` is on, the interpreter maintains the incremental
control-flow digest (§4.3): at every branch it folds in the branch kind and
jump target.  The digest becomes the request's control-flow tag in the
reports.

A second per-run product is the *instruction count* ``steps``, used by the
benchmarks (Figures 10-11) as the analog of PHP bytecode instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

from repro.common.errors import WeblangError
from repro.common.digest import FlowDigest
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
from repro.lang.values import (
    PhpArray,
    binop,
    compound,
    freeze_value,
    thaw_value,
    to_int,
    to_str,
    truthy,
    unop,
)
from repro.trace.events import Request


@dataclass
class StateOpIntent:
    """A shared-object operation, issued by every slot of a run.

    kind is one of: ``register_read``, ``register_write``, ``kv_get``,
    ``kv_set``, ``db_statement``, ``db_begin``, ``db_commit``,
    ``db_rollback``.  ``objs[i]`` names slot ``i``'s target object and
    ``args[i]`` carries its operands (e.g. the SQL text, or the
    key/value): session registers and SQL text can differ per slot.
    """

    kind: str
    objs: list[str]
    args: list[tuple]


@dataclass
class NondetIntent:
    """A non-deterministic built-in invocation (§4.6), per-slot args."""

    func: str
    args: list[tuple]


@dataclass
class ExternalIntent:
    """An outbound external-service request (the §5.5 extension).

    ``services[i]`` names slot ``i``'s destination ("email");
    ``contents[i]`` is its frozen message.  The executor forwards it
    through the collector; at audit time the re-executed message is
    compared against the trace like a response.
    """

    services: list[str]
    contents: list[tuple]


@dataclass
class RunOutput:
    """Result of one run: a body per slot."""

    bodies: list[str]
    steps: int  # "instructions" (AST evaluations) of any one slot
    multi_steps: int = 0  # instructions that produced a multivalue
    flow_tag: str | None = None  # the slots' shared control-flow digest
    #: Over the multivalent steps: the requests they stood for, and the
    #: classes actually computed (equal when collapse is off).
    multi_slots: int = 0
    multi_classes: int = 0


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: object):
        self.value = value


class _Env:
    """A variable scope; function frames link back to the global frame."""

    __slots__ = ("vars", "globals", "global_names")

    def __init__(self, global_vars: dict[str, object] | None = None):
        self.vars: dict[str, object] = {}
        self.globals = global_vars if global_vars is not None else self.vars
        self.global_names: set = set()

    def lookup(self, name: str) -> object:
        if name in self.global_names:
            return self.globals.get(name)
        return self.vars.get(name)

    def store(self, name: str, value: object) -> None:
        if name in self.global_names:
            self.globals[name] = value
        else:
            self.vars[name] = value


class _RunState:
    """Per-request mutable execution state."""

    __slots__ = ("request", "output", "digest", "in_tx", "steps", "funcs",
                 "depth")

    def __init__(self, request: Request, digest: FlowDigest | None,
                 funcs: dict[str, FuncDecl]):
        self.request = request
        self.output: list[str] = []
        self.digest = digest
        self.in_tx = False
        self.steps = 0
        self.funcs = funcs
        self.depth = 0


_MAX_CALL_DEPTH = 100

#: The request-input built-ins (resolved before every other call) and the
#: :class:`Request` attribute each one reads.
REQUEST_INPUTS = {"param": "get", "post_param": "post", "cookie": "cookies"}

# A weblang frame costs ~a dozen Python frames (the yield-from chain), so
# the default CPython recursion limit trips long before _MAX_CALL_DEPTH.
# Raise the floor once; the weblang limit is what callers actually hit.
import sys as _sys

if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)


class Interpreter:
    """Tree-walking weblang interpreter with yield-based state ops."""

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

    # -- entry point --------------------------------------------------------

    def run(
        self, program: Program, request: Request
    ) -> Generator[object, object, RunOutput]:
        """Execute ``program`` on ``request``, a group of one.

        Yields one-slot :class:`StateOpIntent` / :class:`NondetIntent` /
        :class:`ExternalIntent`; the driver sends back a one-slot list.
        Returns :class:`RunOutput`.
        """
        digest = FlowDigest() if self.record_flow else None
        if digest is not None:
            digest.update_str(program.name)
        state = _RunState(request, digest, program.functions)
        env = _Env()
        try:
            yield from self._exec_block(program.body, env, state)
        except _ReturnSignal:
            pass  # top-level return ends the script, like PHP
        except (_BreakSignal, _ContinueSignal):
            raise WeblangError("break/continue outside loop") from None
        if state.in_tx:
            raise WeblangError("script ended with an open transaction")
        flow_tag = digest.hexdigest() if digest is not None else None
        return RunOutput(["".join(state.output)], state.steps,
                         flow_tag=flow_tag)

    # -- statements -----------------------------------------------------------

    def _exec_block(self, stmts: list[Node], env: _Env, state: _RunState):
        for stmt in stmts:
            yield from self._exec_stmt(stmt, env, state)

    def _eval_copy(self, node: Node, env: _Env, state: _RunState):
        """Evaluate with PHP value-semantics: reading an array out of a
        variable or cell into a new storage location copies it.  The
        compiled engine applies the identical rule, which keeps the
        two runtimes observationally equal (difference (ii), §A.6)."""
        value = yield from self._eval(node, env, state)
        if type(node) in (Var, Index) and isinstance(value, PhpArray):
            return value.copy()
        return value

    def _exec_stmt(self, stmt: Node, env: _Env, state: _RunState):
        state.steps += 1
        kind = type(stmt)
        if kind is Assign:
            value = yield from self._eval_copy(stmt.expr, env, state)
            if stmt.op:
                current = env.lookup(stmt.name)
                value = compound(stmt.op)(current, value)
            env.store(stmt.name, value)
            return
        if kind is ExprStmt:
            yield from self._eval(stmt.expr, env, state)
            return
        if kind is Echo:
            for expr in stmt.exprs:
                value = yield from self._eval(expr, env, state)
                state.output.append(to_str(value))
            return
        if kind is If:
            taken = -1
            for index, (cond, _body) in enumerate(stmt.branches):
                value = yield from self._eval(cond, env, state)
                if truthy(value):
                    taken = index
                    break
            if state.digest is not None:
                state.digest.update("if", stmt.nid * 64 + taken + 1)
            if taken >= 0:
                yield from self._exec_block(stmt.branches[taken][1], env,
                                            state)
            elif stmt.else_body is not None:
                yield from self._exec_block(stmt.else_body, env, state)
            return
        if kind is While:
            while True:
                value = yield from self._eval(stmt.cond, env, state)
                if not truthy(value):
                    break
                if state.digest is not None:
                    state.digest.update("loop", stmt.nid)
                try:
                    yield from self._exec_block(stmt.body, env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            if state.digest is not None:
                state.digest.update("loopx", stmt.nid)
            return
        if kind is Foreach:
            subject = yield from self._eval(stmt.subject, env, state)
            if not isinstance(subject, PhpArray):
                raise WeblangError("foreach over a non-array")
            for key, value in subject.items():
                if state.digest is not None:
                    state.digest.update("loop", stmt.nid)
                if stmt.key_var is not None:
                    env.store(stmt.key_var, key)
                if isinstance(value, PhpArray):
                    env.store(stmt.val_var, value.copy())
                else:
                    env.store(stmt.val_var, value)
                try:
                    yield from self._exec_block(stmt.body, env, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            if state.digest is not None:
                state.digest.update("loopx", stmt.nid)
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

    def _exec_index_assign(
        self, stmt: IndexAssign, env: _Env, state: _RunState
    ):
        container = env.lookup(stmt.name)
        if container is None:
            container = PhpArray()
            env.store(stmt.name, container)
        if not isinstance(container, PhpArray):
            raise WeblangError(
                f"cannot index non-array variable ${stmt.name}"
            )
        # Walk to the innermost container, creating arrays along the way,
        # through the write accessor (held open until the store is done).
        held = []
        for path_expr in stmt.path[:-1]:
            if path_expr is None:
                raise WeblangError("'[]' only allowed as the last index")
            key = yield from self._eval(path_expr, env, state)
            inner = container.descend(key)
            held.append(container)
            if not isinstance(inner, PhpArray):
                raise WeblangError("cannot index into a scalar")
            container = inner
        value = yield from self._eval_copy(stmt.expr, env, state)
        last = stmt.path[-1]
        if last is None:
            if stmt.op:
                raise WeblangError("compound assignment to append slot")
            container.append(value)
        else:
            key = yield from self._eval(last, env, state)
            if stmt.op:
                value = compound(stmt.op)(container.get(key), value)
            container.set(key, value)
        for array in held:
            array.release()

    # -- expressions -----------------------------------------------------------

    def _eval(self, node: Node, env: _Env, state: _RunState):
        state.steps += 1
        kind = type(node)
        if kind is Lit:
            return node.value
        if kind is Var:
            return env.lookup(node.name)
        if kind is BinOp:
            return (yield from self._eval_binop(node, env, state))
        if kind is Index:
            base = yield from self._eval(node.base, env, state)
            if not isinstance(base, PhpArray):
                if isinstance(base, str):
                    index = yield from self._eval(node.index, env, state)
                    position = to_int(index)
                    if 0 <= position < len(base):
                        return base[position]
                    return ""
                raise WeblangError("indexing a non-array value")
            index = yield from self._eval(node.index, env, state)
            return base.get(index)
        if kind is Call:
            return (yield from self._eval_call(node, env, state))
        if kind is UnOp:
            value = yield from self._eval(node.operand, env, state)
            return unop(node.op)(value)
        if kind is Ternary:
            cond = yield from self._eval(node.cond, env, state)
            taken = truthy(cond)
            if state.digest is not None:
                state.digest.update("tern", node.nid * 2 + int(taken))
            if taken:
                return (yield from self._eval(node.then, env, state))
            return (yield from self._eval(node.other, env, state))
        if kind is ArrayLit:
            array = PhpArray()
            for key_expr, value_expr in node.items:
                value = yield from self._eval_copy(value_expr, env, state)
                if key_expr is None:
                    array.append(value)
                else:
                    key = yield from self._eval(key_expr, env, state)
                    array.set(key, value)
            return array
        raise WeblangError(f"unknown expression {kind.__name__}")

    def _eval_binop(self, node: BinOp, env: _Env, state: _RunState):
        op = node.op
        if op == "&&":
            left = yield from self._eval(node.left, env, state)
            take_right = truthy(left)
            if state.digest is not None:
                state.digest.update("sc", node.nid * 2 + int(take_right))
            if not take_right:
                return False
            right = yield from self._eval(node.right, env, state)
            return truthy(right)
        if op == "||":
            left = yield from self._eval(node.left, env, state)
            take_right = not truthy(left)
            if state.digest is not None:
                state.digest.update("sc", node.nid * 2 + int(take_right))
            if not take_right:
                return True
            right = yield from self._eval(node.right, env, state)
            return truthy(right)
        left = yield from self._eval(node.left, env, state)
        right = yield from self._eval(node.right, env, state)
        return binop(op)(left, right)

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: Call, env: _Env, state: _RunState):
        name = node.name
        args = []
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
            service = "email" if name == "send_email" else to_str(args[0])
            payload = args if name == "send_email" else args[1:]
            content = tuple(freeze_value(value) for value in payload)
            yield ExternalIntent([service], [content])
            return True
        if name in NONDET_BUILTINS:
            (result,) = yield NondetIntent(name, [tuple(args)])
            return result
        func = state.funcs.get(name)
        if func is not None:
            return (yield from self._call_user(func, args, env, state))
        pure = PURE_BUILTINS.get(name)
        if pure is not None:
            return pure(*args)
        raise WeblangError(f"call to undefined function {name}()")

    def _request_input(self, which: str, args: list[object],
                       state: _RunState) -> object:
        if len(args) not in (1, 2):
            raise WeblangError(f"{which}() expects 1 or 2 arguments")
        key = to_str(args[0])
        default = args[1] if len(args) == 2 else None
        return getattr(state.request, REQUEST_INPUTS[which]).get(key, default)

    def _call_user(self, func: FuncDecl, args: list[object], env: _Env,
                   state: _RunState):
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

    def _state_call(self, name: str, args: list[object], state: _RunState):
        if name in ("db_query", "db_exec"):
            self._check_args(name, args, 1)
            sql = to_str(args[0])
            (result,) = yield StateOpIntent("db_statement", [self.db_name],
                                            [(sql,)])
            return self._convert_db_result(name, result)
        if name == "db_begin":
            self._check_args(name, args, 0)
            if state.in_tx:
                raise WeblangError("nested transactions are not allowed")
            yield StateOpIntent("db_begin", [self.db_name], [()])
            state.in_tx = True
            return None
        if name == "db_commit":
            self._check_args(name, args, 0)
            if not state.in_tx:
                raise WeblangError("db_commit() without a transaction")
            (result,) = yield StateOpIntent("db_commit", [self.db_name], [()])
            state.in_tx = False
            return bool(result)
        if name == "db_rollback":
            self._check_args(name, args, 0)
            if not state.in_tx:
                raise WeblangError("db_rollback() without a transaction")
            yield StateOpIntent("db_rollback", [self.db_name], [()])
            state.in_tx = False
            return None
        if state.in_tx:
            # §4.4: a transaction cannot enclose other object operations.
            raise WeblangError(
                f"{name}() inside a DB transaction violates the object model"
            )
        if name == "kv_get":
            self._check_args(name, args, 1)
            key = to_str(args[0])
            (result,) = yield StateOpIntent("kv_get", [self.kv_name], [(key,)])
            return thaw_value(result)
        if name == "kv_set":
            self._check_args(name, args, 2)
            key = to_str(args[0])
            value = freeze_value(args[1])
            yield StateOpIntent("kv_set", [self.kv_name], [(key, value)])
            return None
        if name == "reg_read":
            self._check_args(name, args, 1)
            register = f"reg:g:{to_str(args[0])}"
            (result,) = yield StateOpIntent("register_read", [register], [()])
            return thaw_value(result)
        if name == "reg_write":
            self._check_args(name, args, 2)
            register = f"reg:g:{to_str(args[0])}"
            value = freeze_value(args[1])
            yield StateOpIntent("register_write", [register], [(value,)])
            return None
        if name == "session_get":
            self._check_args(name, args, 0)
            register = self._session_register(state)
            (result,) = yield StateOpIntent("register_read", [register], [()])
            return thaw_value(result)
        if name == "session_put":
            self._check_args(name, args, 1)
            register = self._session_register(state)
            value = freeze_value(args[0])
            yield StateOpIntent("register_write", [register], [(value,)])
            return None
        raise WeblangError(f"unknown state builtin {name}")  # pragma: no cover

    @staticmethod
    def _check_args(name: str, args: list[object], expected: int) -> None:
        if len(args) != expected:
            raise WeblangError(
                f"{name}() expects {expected} arguments, got {len(args)}"
            )

    def _session_register(self, state: _RunState) -> str:
        cookie = state.request.cookies.get(self.session_cookie)
        if cookie is None:
            raise WeblangError(
                "session_get/session_put without a session cookie"
            )
        return f"reg:sess:{cookie}"

    @staticmethod
    def _convert_db_result(name: str, result: object) -> object:
        """Convert a StmtResult-shaped driver reply into weblang values."""
        rows = getattr(result, "rows", None)
        if name == "db_query":
            if rows is None:
                raise WeblangError("db_query() expects a SELECT")
            return PhpArray.from_records(rows)
        affected = getattr(result, "affected", 0)
        insert_id = getattr(result, "last_insert_id", None)
        out = PhpArray()
        out.set("affected", affected)
        out.set("insert_id", insert_id)
        return out
