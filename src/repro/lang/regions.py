"""Generated straight-line regions of the compiled engine.

A pure block, and a pure ``while`` with its body, compile to **one**
generated Python function (:func:`block`, :func:`loop`) instead of a
closure that loops over the statements' closures.  In a dict-frame scope
a statement of the region may also run as a plain Python expression:

* it is ``$x = e``, ``$x op= e`` or the ``while`` condition, and ``e``
  is built only from frame variables, int / str constants and operators
  whose :data:`~repro.lang.values.EXACT_OPS` entry's plain form is in
  :data:`_INFIX` (``+ - * .``, the comparisons at the root only, ``%``
  by a non-zero int constant only);
* a guard tests ``type(v) is int`` (``str`` under ``.``) of every
  variable the statement reads; when it holds the statement books its
  fixed step count in one add and evaluates ``e`` in line, otherwise
  it calls the statement's own closure.

On operands of exactly the entry's type the plain operator *is* the
table entry (value and type), it never raises, and no multivalue passes
the guard, so ``steps``, ``multi_steps``, the flow digest, bodies and
errors stay the closures'.  A statement that does not qualify — and
every statement of a ``use_env`` scope, whose variables live behind
:class:`~repro.lang.interp._Env` — is a call to its closure.

A ``while`` loads every variable its condition or an in-line statement
reads or writes, and ``steps`` and ``flow``, into Python locals at
entry; it writes back what changed before each call (a closure or
``_truth``) and at exit, and reloads after a call or a ``break`` /
``continue`` signal, so a call, and whoever catches what it raises,
finds the frame, ``steps`` and the flow digest as the closures alone
would leave them.  A block works on the frame directly.

A pure built-in call of one to three arguments, and a copy-read, are
generated functions too (:func:`call`, :func:`copy_read`): a constant
argument is bound, a dict-frame variable is read in line as its closure
reads it, and any other argument is a call to its closure.

No program text reaches the generated source: variable names,
constants and closures are arguments of a factory whose parameters the
generator names, so one source (one ``compile``) serves every region of
the same shape.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from functools import lru_cache

from repro.common.digest import _FNV_PRIME, _MASK
from repro.lang.ast import Assign, BinOp, Lit, Node, Var, While
from repro.lang.interp import _BreakSignal, _ContinueSignal
from repro.lang.simd import _call_builtin, _copy_value, _truth
from repro.lang.values import EXACT_OPS, PhpArray, binop, compound
from repro.multivalue.multivalue import MultiValue

#: Plain form -> Python infix operator, for the operators a region
#: evaluates in line.
_INFIX: dict[object, str] = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.mod: "%",
    operator.lt: "<", operator.le: "<=", operator.gt: ">", operator.ge: ">=",
    operator.eq: "==", operator.ne: "!=",
}

#: The operators that make a bool, which no operator above takes: they
#: stand at the root of a statement only.
_TESTS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: How deep an operator may stand and still run in line.
_DEPTH = 32

#: A loop's local of a variable not in the frame: never written back.
_ABSENT = object()

#: The module a generated function runs in: no builtins beyond these.
_HELPERS: dict[str, object] = {
    "__builtins__": {}, "type": type, "int": int, "str": str,
    "_truth": _truth, "_BreakSignal": _BreakSignal,
    "_ContinueSignal": _ContinueSignal, "_PRIME": _FNV_PRIME,
    "_MASK": _MASK, "_ABSENT": _ABSENT, "len": len, "PhpArray": PhpArray,
    "MultiValue": MultiValue, "_copy_value": _copy_value,
    "_call_builtin": _call_builtin,
}

_LOOP = """\
{load}
        steps += 1
        while True:
{cond}
            if cond is not True:
                if cond is False:
                    break
{sync}
                if not _truth(cond, {where}):
                    break
            if flow is not None:
                flow = ((flow ^ {enter}) * _PRIME) & _MASK
            try:
{body}
            except _BreakSignal:
{reload}
                break
            except _ContinueSignal:
{reload}
                continue
        if flow is not None:
            flow = ((flow ^ {leave}) * _PRIME) & _MASK
{sync_exit}"""

#: A read's local and the type its guard tests, by variable name.
_Reads = dict[str, tuple[str, type]]


def _made(source: str, filename: str) -> Callable[..., Callable]:
    """``make(b0, b1, ...)`` of one generated source."""
    namespace = dict(_HELPERS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["make"]  # type: ignore[return-value]


@lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., Callable]:
    return _made(source, "<weblang region>")


@lru_cache(maxsize=1024)
def _expression_factory(source: str) -> Callable[..., Callable]:
    return _made(source, "<weblang expression>")


class _Region:
    """The source of one generated function and the values it binds."""

    def __init__(self, fast: bool):
        self.fast = fast  # a dict frame: statements may run in line
        self.args: list[object] = []
        self.names: dict[str, str] = {}
        #: A loop's locals by variable, and what in-line statements wrote.
        self.locals: dict[str, str] = {}
        self.dirty: set[str] = set()

    def bind(self, value: object) -> str:
        self.args.append(value)
        return f"b{len(self.args) - 1}"

    def build(self, body: str, factory: Callable | None = None) -> Callable:
        params = ", ".join(f"b{index}" for index in range(len(self.args)))
        source = (f"def make({params}):\n    def run(env, state):\n"
                  f"{body}\n    return run\n")
        return (factory or _factory)(source)(*self.args)

    def _expr(self, node: Node, want: type | None, reads: _Reads,
              depth: int = 0) -> tuple[str, int] | None:
        """``node`` as a Python expression on exactly-typed operands and
        its step count, or ``None``; ``want`` is the type the operator
        above takes (``None`` at the root).  An operator more than
        :data:`_DEPTH` deep is left to the closures: Python's parser
        refuses 200 nested parentheses."""
        if isinstance(node, Lit):
            if type(node.value) not in (int, str) \
                    or want not in (None, type(node.value)):
                return None
            return self.bind(node.value), 1
        if isinstance(node, Var) and want is not None:
            # No operator here turns one type into another, so every
            # operand of an expression that qualifies has the same type.
            if node.name not in reads:
                reads[node.name] = (self._local(node.name, len(reads)), want)
            return reads[node.name][0], 1
        if not isinstance(node, BinOp) or depth > _DEPTH:
            return None
        operands, plain = EXACT_OPS.get(node.op, (None, None))
        infix = _INFIX.get(plain)
        if operands is None or infix is None \
                or want not in (None, bool if infix in _TESTS else operands) \
                or (node.op == "%" and not _divisor(node.right)):
            return None
        left = self._expr(node.left, operands, reads, depth + 1)
        right = (self._expr(node.right, operands, reads, depth + 1)
                 if left else None)
        if left is None or right is None:
            return None
        return f"({left[0]} {infix} {right[0]})", 1 + left[1] + right[1]

    def _inline(self, node: Node, reads: _Reads) -> tuple[str, int] | None:
        """:meth:`_expr` of a statement's root, binding nothing when it
        does not qualify."""
        mark, known = len(self.args), dict(self.locals)
        inline = self._expr(node, None, reads) if self.fast else None
        if inline is None:
            del self.args[mark:]
            self.locals = known
        return inline

    def _line(self, depth: int, node: Node, slow: str, target: str | None,
              book: int) -> list[str]:
        """``node``'s value stored in variable ``target`` (in ``cond``
        where ``None``) — in line behind the guard on its reads, booking
        ``book`` steps more than its nodes, where it qualifies — else
        the call ``slow``."""
        pad = "    " * depth
        reads: _Reads = {}
        inline = self._inline(node, reads)
        if inline is None:
            return self._call(pad, slow, arm=False)
        lines = self._fresh(pad, reads)
        store = "cond" if target is None else self._store(target)
        fast = [f"{self._steps} += {inline[1] + book}",
                f"{store} = {inline[0]}"]
        slow_lines = self._call(pad + "    ", slow, arm=True) if reads else []
        self.dirty.update(("steps", store))
        if not reads:
            return [*lines, *(pad + line for line in fast)]
        guard = " and ".join(f"type({local}) is {kind.__name__}"
                             for local, kind in reads.values())
        return [*lines, f"{pad}if {guard}:",
                *(f"{pad}    {line}" for line in fast),
                f"{pad}else:", *slow_lines]

    # -- a block's statements work on the frame and ``state`` directly

    _steps = "state.steps"

    def _local(self, var: str, index: int) -> str:
        return f"v{index}"

    def _fresh(self, pad: str, reads: _Reads) -> list[str]:
        return [f"{pad}{local} = env.get({self._name(var)})"
                for var, (local, _) in reads.items()]

    def _store(self, target: str) -> str:
        return f"env[{self._name(target)}]"

    def _call(self, pad: str, call: str, arm: bool) -> list[str]:
        return [pad + call]

    def _name(self, var: str) -> str:
        if var not in self.names:
            self.names[var] = self.bind(var)
        return self.names[var]

    def statement(self, depth: int, stmt: Node, fn: Callable) -> list[str]:
        """One statement of a region: ``$x = e`` / ``$x op= e`` in line
        where it qualifies, else a call to its closure ``fn``."""
        call = f"{self.bind(fn)}(env, state)"
        form = _form(stmt)
        if form is None:
            return self._call("    " * depth, call, arm=False)
        node, target, book = form
        return self._line(depth, node, call, target, book)


class _Loop(_Region):
    """A ``while``, whose in-line statements work on Python locals (module
    docstring): a call writes back the locals written since the last
    sync (``dirty``) before it and reloads them all after."""

    _steps = "steps"

    def __init__(self, fast: bool, forms: list[tuple[Node, str | None]]):
        super().__init__(fast)
        self.written = {"steps", "flow"}
        for node, target in forms:  # a dry run: which locals there are
            if self._inline(node, {}) is not None and target is not None:
                self.written.add(self._local(target, 0))
        self.args.clear()
        self.dirty = set(self.written)  # what a trip may have left

    def _local(self, var: str, index: int) -> str:
        return self.locals.setdefault(var, f"x{len(self.locals)}")

    def _fresh(self, pad: str, reads: _Reads) -> list[str]:
        return []

    def _store(self, target: str) -> str:
        return self._local(target, 0)

    def _call(self, pad: str, call: str, arm: bool) -> list[str]:
        lines = [*self.sync(pad, self.dirty), pad + call, *self.reload(pad)]
        if not arm:  # else the in-line arm may leave what was dirty
            self.dirty = set()
        return lines

    def reload(self, pad: str) -> list[str]:
        """Lines loading every local from the frame and ``state``."""
        return [*(f"{pad}{local} = get({self._name(var)}, _ABSENT)"
                  for var, local in self.locals.items()),
                f"{pad}steps = state.steps", f"{pad}flow = state.flow"]

    def sync(self, pad: str, slots: set[str]) -> list[str]:
        """Lines writing the locals ``slots`` back."""
        lines = [f"{pad}state.{slot} = {slot}"
                 for slot in ("steps", "flow") if slot in slots]
        return lines + [f"{pad}if {local} is not _ABSENT:\n"
                        f"{pad}    env[{self._name(var)}] = {local}"
                        for var, local in self.locals.items()
                        if local in slots]


def _form(stmt: Node) -> tuple[Node, str, int] | None:
    """An assignment's expression, target and the steps it books beyond
    the expression's nodes, where it may run in line."""
    if not isinstance(stmt, Assign) or (
            stmt.op and compound(stmt.op) is not binop(stmt.op)):
        return None
    if not stmt.op:  # the statement's step, then its expression's
        return stmt.expr, stmt.name, 1
    # ``$x op= e`` is ``$x = $x op e`` but for the steps of the operator
    # and the read of ``$x``: the statement books one.
    return BinOp(stmt.op, Var(stmt.name), stmt.expr), stmt.name, -1


def _divisor(node: Node) -> bool:
    """``%`` runs in line only by a non-zero int constant."""
    return isinstance(node, Lit) and type(node.value) is int \
        and node.value != 0


def block(stmts: list[Node], fns: list[Callable], fast: bool) -> Callable:
    """One function running the pure statements ``stmts`` in order
    (``fns`` their closures); ``fast`` where the frame is a dict."""
    region = _Region(fast)
    lines = [line for stmt, fn in zip(stmts, fns)
             for line in region.statement(2, stmt, fn)]
    if len(lines) == 1 and len(fns) == 1:
        return fns[0]  # one call: the closure itself
    return region.build("\n".join(lines) or "        pass")


def loop(stmt: While, cond_fn: Callable, fns: list[Callable], enter: int,
         leave: int, where: str, fast: bool) -> Callable:
    """One function running the pure ``while`` ``stmt`` (``cond_fn`` the
    condition's closure, ``fns`` its body's) as its closure would: the
    flow digest folds ``enter`` per trip and ``leave`` after the last,
    ``break`` / ``continue`` arrive as signals, and ``_truth`` decides a
    condition that is not a bool.

    A call — a closure or ``_truth`` — finds the frame and ``state`` as
    the closures alone would have left them, and whatever it raises
    leaves them as the call did: a signal reloads the locals, and an
    error goes out with nothing written after the call."""
    forms: list[tuple[Node, str | None]] = [(stmt.cond, None)]
    forms += [form[:2] for node in stmt.body
              if (form := _form(node)) is not None]
    region = _Loop(fast, forms)
    cond = region._line(3, stmt.cond,
                        f"cond = {region.bind(cond_fn)}(env, state)", None, 0)
    sync = region.sync(" " * 16, region.dirty)
    region.dirty.add("flow")
    body = [line for node, fn in zip(stmt.body, fns)
            for line in region.statement(4, node, fn)]
    load = ["        get = env.get"] if region.locals else []
    return region.build(_LOOP.format(
        load="\n".join(load + region.reload(" " * 8)), cond="\n".join(cond),
        sync="\n".join(sync), body="\n".join(body) or " " * 16 + "pass",
        reload="\n".join(region.reload(" " * 16)),
        sync_exit="\n".join(region.sync(" " * 8, region.written)),
        where=region.bind(where), enter=region.bind(enter),
        leave=region.bind(leave)))


def _operand(region: _Region, index: int, operand: tuple
             ) -> tuple[str, list[str], int]:
    """What holds ``operand`` — ``(closure, dict-frame variable or None,
    (value, steps) or None)`` — once ``lines`` ran, the lines, and the
    steps left to book: a constant is bound, a variable read, booked and
    copied as its copy-read closure would, else its closure called."""
    fn, var, const = operand
    if const is not None:
        return region.bind(const[0]), [], const[1]
    arg = f"a{index}"
    if var is None:
        return arg, [f"{arg} = {region.bind(fn)}(env, state)"], 0
    return arg, [f"{arg} = env.get({region.bind(var)})",
                 f"if type({arg}) is PhpArray:", f"    {arg} = {arg}.copy()",
                 f"elif type({arg}) is MultiValue:",
                 f"    state.multivalent(len({arg}.values))",
                 f"    {arg} = _copy_value({arg})"], 1


def _built(region: _Region, steps: int, lines: list[str]) -> Callable:
    """The generated function: ``steps`` booked, then ``lines``."""
    lines.insert(0, f"state.steps += {region.bind(steps)}")
    return region.build("\n".join(" " * 8 + line for line in lines),
                        _expression_factory)


def call(builtin: Callable, operands: list[tuple]) -> Callable:
    """One function calling the pure built-in ``builtin`` as the closures
    of the call and of its arguments would, arguments evaluated in order
    (:func:`_operand`); one that is a multivalue — or an array, once a
    cell holds one — sends the call to ``_call_builtin``."""
    region = _Region(True)
    evaluated = [_operand(region, index, operand)
                 for index, operand in enumerate(operands)]
    fn, args = region.bind(builtin), ", ".join(arg for arg, _, _ in evaluated)
    held = [arg for arg, lines, _ in evaluated if lines]  # not constants
    body = [line for _, lines, _ in evaluated for line in lines]
    if held:
        multi = " or ".join(f"type({arg}) is MultiValue" for arg in held)
        array = " or ".join(f"type({arg}) is PhpArray" for arg in held)
        body += [f"if {multi} or state.multi_cells and ({array}):",
                 f"    return _call_builtin({fn}, [{args}], state)"]
    body.append(f"return {fn}({args})")
    return _built(region, 1 + sum(steps for _, _, steps in evaluated), body)


def copy_read(var: str) -> Callable:
    """The copy-read of dict-frame variable ``var``, as :func:`call`
    reads an argument."""
    region = _Region(True)
    arg, lines, steps = _operand(region, 0, (None, var, None))
    return _built(region, steps, [*lines, f"return {arg}"])
