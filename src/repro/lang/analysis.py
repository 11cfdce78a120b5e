"""The purity pass: which weblang code may yield an intent.

An intent — a shared-object operation, a non-deterministic built-in or
an external call — is the one thing that must leave the SIMD-on-demand
engine (§4.2-4.3); code that can never yield one runs as plain Python.
The compiling backend (:mod:`repro.lang.compile`) reads that one fact
from here:

* :func:`call_kind` — what a call runs, in the runtimes' dispatch order;
* :func:`impure_functions` — the user functions that may yield an
  intent: a least fixpoint over the call graph, so mutual recursion is
  handled;
* :meth:`Purity.pure` — per node, memoised: no intent-yielding built-in
  and no call of an impure user function anywhere in the subtree.

The flow digest of every engine reads :func:`fold_free` from here too.

The contract — every intent a run yields comes from code the pass calls
impure — is held by ``tests/lang/test_analysis_soundness.py`` on the
bundled apps and on randomized programs.
"""

from __future__ import annotations

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
    REQUEST_INPUT_BUILTINS,
    STATE_BUILTINS,
)

__all__ = ["Purity", "branches", "call_kind", "fold_free",
           "impure_functions", "iter_children", "nodes"]


def call_kind(name: str, functions) -> str:
    """What a call of ``name`` runs, where ``functions`` holds the user
    functions: ``input``, ``builtin`` (one that yields an intent),
    ``user``, ``pure`` or ``unknown`` — in the exact dispatch order of
    the runtimes (user functions shadow pure built-ins but not
    intent-yielding ones)."""
    if name in REQUEST_INPUT_BUILTINS:
        return "input"
    if name in STATE_BUILTINS or name in EXTERNAL_BUILTINS \
            or name in NONDET_BUILTINS:
        return "builtin"
    if name in functions:
        return "user"
    return "pure" if name in PURE_BUILTINS else "unknown"


def iter_children(node: Node) -> tuple:
    """The direct AST children of ``node``."""
    kind = type(node)
    if kind in (Lit, Var, Break, Continue, GlobalDecl):
        return ()
    if kind is ArrayLit:
        out: list[Node] = []
        for key, value in node.items:
            if key is not None:
                out.append(key)
            out.append(value)
        return tuple(out)
    if kind is Index:
        return (node.base, node.index)
    if kind is BinOp:
        return (node.left, node.right)
    if kind is UnOp:
        return (node.operand,)
    if kind is Ternary:
        return (node.cond, node.then, node.other)
    if kind is Call:
        return tuple(node.args)
    if kind is ExprStmt:
        return (node.expr,)
    if kind is Assign:
        return (node.expr,)
    if kind is IndexAssign:
        return tuple(p for p in node.path if p is not None) + (node.expr,)
    if kind is Echo:
        return tuple(node.exprs)
    if kind is If:
        out = []
        for cond, body in node.branches:
            out.append(cond)
            out.extend(body)
        if node.else_body is not None:
            out.extend(node.else_body)
        return tuple(out)
    if kind is While:
        return (node.cond,) + tuple(node.body)
    if kind is Foreach:
        return (node.subject,) + tuple(node.body)
    if kind is Return:
        return (node.expr,) if node.expr is not None else ()
    if kind is FuncDecl:
        return tuple(node.body)
    return ()


def nodes(tree: Node | list) -> list[Node]:
    """Every node of ``tree`` (a node or a list of them)."""
    found, stack = [], list(tree) if isinstance(tree, list) else [tree]
    while stack:
        found.append(stack.pop())
        stack.extend(iter_children(found[-1]))
    return found


def branches(node: Node, functions) -> bool:
    """True when ``node`` itself may fold the flow digest or raise a
    ``break`` / ``continue``, ``functions`` being the user functions."""
    kind = type(node)
    return kind in (Ternary, If, While, Foreach, Break, Continue) \
        or kind is BinOp and node.op in ("&&", "||") \
        or kind is Call and node.name in functions


def fold_free(loop: While | Foreach, functions) -> bool:
    """True when nothing in ``loop``'s ``while`` condition or body
    branches (:func:`branches`) or returns.  A loop left by ``return``
    folds no ``loopx``: were it to fold nothing at all, ``f(1); f(0)``
    and ``f(0); f(1)`` would fold alike."""
    head = [loop.cond] if type(loop) is While else []
    return not any(type(node) is Return or branches(node, functions)
                   for node in nodes(head + loop.body))


def impure_functions(program: Program) -> frozenset[str]:
    """The user functions of ``program`` that may yield an intent: those
    calling an intent-yielding built-in, then, to a fixpoint, those
    calling an impure one."""
    functions = program.functions
    impure: set[str] = set()
    callees: dict[str, set[str]] = {}
    for name, decl in functions.items():
        callees[name] = set()
        for item in nodes(decl.body):
            if type(item) is Call:
                kind = call_kind(item.name, functions)
                if kind == "builtin":
                    impure.add(name)
                elif kind == "user":
                    callees[name].add(item.name)
    changed = True
    while changed:
        changed = False
        for name in functions.keys() - impure:
            if callees[name] & impure:
                impure.add(name)
                changed = True
    return frozenset(impure)


class Purity:
    """The purity of ``program``'s functions and nodes.  Nodes are keyed
    by identity, so a lookup means something only while the caller holds
    the program."""

    __slots__ = ("functions", "impure", "_memo")

    def __init__(self, program: Program):
        self.functions = program.functions
        self.impure = impure_functions(program)
        self._memo: dict[int, bool] = {}

    def function_pure(self, name: str) -> bool:
        """True when user function ``name`` can never yield an intent."""
        return name not in self.impure

    def pure(self, node: Node) -> bool:
        """True when ``node`` can never yield an intent."""
        got = self._memo.get(id(node))
        if got is None:
            got = True
            if type(node) is Call:
                kind = call_kind(node.name, self.functions)
                got = not (kind == "builtin"
                           or kind == "user" and node.name in self.impure)
            got = got and all(map(self.pure, iter_children(node)))
            self._memo[id(node)] = got
        return got
