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
from repro.lang.simd import _truth
from repro.lang.values import EXACT_OPS, binop, compound

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

#: The module a generated function runs in: no builtins beyond these.
_HELPERS: dict[str, object] = {
    "__builtins__": {}, "type": type, "int": int, "str": str,
    "_truth": _truth, "_BreakSignal": _BreakSignal,
    "_ContinueSignal": _ContinueSignal, "_PRIME": _FNV_PRIME,
    "_MASK": _MASK,
}

_LOOP = """\
        state.steps += 1
        while True:
{cond}
            if cond is not True and (cond is False
                                     or not _truth(cond, {where})):
                break
            flow = state.flow
            if flow is not None:
                state.flow = ((flow ^ {enter}) * _PRIME) & _MASK
            try:
{body}
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
        flow = state.flow
        if flow is not None:
            state.flow = ((flow ^ {leave}) * _PRIME) & _MASK"""

#: A read's local and the type its guard tests, by variable name.
_Reads = dict[str, tuple[str, type]]


@lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., Callable]:
    """``make(b0, b1, ...)`` of one generated source."""
    namespace = dict(_HELPERS)
    exec(compile(source, "<weblang region>", "exec"), namespace)
    return namespace["make"]  # type: ignore[return-value]


class _Region:
    """The source of one generated function and the values it binds."""

    def __init__(self, fast: bool):
        self.fast = fast  # a dict frame: statements may run in line
        self.args: list[object] = []
        self.names: dict[str, str] = {}

    def bind(self, value: object) -> str:
        self.args.append(value)
        return f"b{len(self.args) - 1}"

    def build(self, body: str) -> Callable:
        params = ", ".join(f"b{index}" for index in range(len(self.args)))
        source = (f"def make({params}):\n    def run(env, state):\n"
                  f"{body}\n    return run\n")
        return _factory(source)(*self.args)

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
            return reads.setdefault(node.name,
                                    (f"v{len(reads)}", want))[0], 1
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

    def _line(self, depth: int, node: Node, slow: str, target: str | None,
              book: int) -> list[str]:
        """``node``'s value stored in variable ``target`` (in ``cond``
        where ``None``) — in line behind the guard on its reads, booking
        ``book`` steps more than its nodes, where it qualifies — else
        the line ``slow``."""
        pad = "    " * depth
        mark = len(self.args)
        reads: _Reads = {}
        inline = self._expr(node, None, reads) if self.fast else None
        if inline is None:
            del self.args[mark:]
            return [pad + slow]
        lines = [f"{pad}{local} = env.get({self._name(var)})"
                 for var, (local, _) in reads.items()]
        store = "cond" if target is None else f"env[{self._name(target)}]"
        fast = [f"state.steps += {inline[1] + book}",
                f"{store} = {inline[0]}"]
        if not reads:
            return [pad + line for line in fast]
        guard = " and ".join(f"type({local}) is {kind.__name__}"
                             for local, kind in reads.values())
        return [*lines, f"{pad}if {guard}:",
                *(f"{pad}    {line}" for line in fast),
                f"{pad}else:", f"{pad}    {slow}"]

    def _name(self, var: str) -> str:
        if var not in self.names:
            self.names[var] = self.bind(var)
        return self.names[var]

    def statement(self, depth: int, stmt: Node, fn: Callable) -> list[str]:
        """One statement of a region: ``$x = e`` / ``$x op= e`` in line
        where it qualifies, else a call to its closure ``fn``."""
        call = f"{self.bind(fn)}(env, state)"
        if not isinstance(stmt, Assign) or (
                stmt.op and compound(stmt.op) is not binop(stmt.op)):
            return ["    " * depth + call]
        if not stmt.op:  # the statement's step, then its expression's
            return self._line(depth, stmt.expr, call, stmt.name, 1)
        # ``$x op= e`` is ``$x = $x op e`` but for the steps of the
        # operator and the read of ``$x``: the statement books one.
        return self._line(depth, BinOp(stmt.op, Var(stmt.name), stmt.expr),
                          call, stmt.name, -1)


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
    condition that is not a bool."""
    region = _Region(fast)
    cond = region._line(3, stmt.cond,
                        f"cond = {region.bind(cond_fn)}(env, state)", None, 0)
    body = [line for node, fn in zip(stmt.body, fns)
            for line in region.statement(4, node, fn)]
    return region.build(_LOOP.format(
        cond="\n".join(cond), body="\n".join(body) or "                pass",
        where=region.bind(where), enter=region.bind(enter),
        leave=region.bind(leave)))
