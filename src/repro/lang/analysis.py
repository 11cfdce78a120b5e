"""Static analysis over weblang ASTs: effects, footprints, lints.

Three cooperating analyses run in one pass per program, producing an
:class:`EffectReport`:

* **Effect inference** — every node gets a set drawn from the lattice
  ``{state-read, state-write, nondet, external}`` (pure = empty set),
  computed over the call graph with an iterative fixpoint so mutual
  recursion is handled precisely.  Builtins are classified once, in
  :data:`repro.lang.builtins.BUILTIN_EFFECTS`.  The compiling backend
  (:mod:`repro.lang.compile`) sources its purity decisions here.

* **State-key footprints** — an over-approximation of the shared-object
  keys a program or function can read or write.  Constant keys are
  tracked exactly (including constant-foldable concatenations and pure
  builtin applications such as ``sql_quote``); computed keys widen the
  per-object key set to ⊤ with a taint trail explaining why.  Constant
  SQL statements are parsed and contribute exact table names; register
  names widen only to their ``reg:g:`` / ``reg:sess:`` prefix.  This is
  the artifact a sharded-store dispatcher needs to ship only the state
  slices a script can touch.

* **Audit-soundness lint** — diagnostics with stable codes flagging
  determinism risks and SIMD-grouping divergence hazards:

  ========  ========  ====================================================
  code      severity  meaning
  ========  ========  ====================================================
  ``W001``  warning   nondet-in-branch-condition (if/while/foreach/
                      ternary/short-circuit control flow may diverge)
  ``W002``  warning   external-result-flows-to-state-key
  ``W003``  warning   state-write-under-divergent-branch
  ``W004``  error     unknown-builtin (call to an undefined function)
  ``W005``  info      computed-state-key (footprint widened; the message
                      carries the taint trail)
  ========  ========  ====================================================

The soundness contract — every intent and state-op key observed at run
time falls inside the static over-approximation — is enforced by
``tests/lang/test_analysis_soundness.py`` on the bundled apps plus
randomized programs.  ``repro lint <app>`` surfaces the report.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    BUILTIN_EFFECTS,
    EFFECT_EXTERNAL,
    EFFECT_NONDET,
    EFFECT_STATE_READ,
    EFFECT_STATE_WRITE,
    EFFECTS_NONE,
    EXTERNAL_BUILTINS,
    MUTATING_BUILTINS,
    NONDET_BUILTINS,
    PURE_BUILTINS,
    REQUEST_INPUT_BUILTINS,
    STATE_BUILTINS,
)
from repro.lang.values import to_str
from repro.sql.ast import is_write as _sql_is_write
from repro.sql.ast import tables_touched as _sql_tables_touched
from repro.sql.parser import parse_sql

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server -> lang)
    from repro.server.app import Application

__all__ = [
    "ALL_EFFECTS",
    "REGISTERS",
    "SEVERITIES",
    "Diagnostic",
    "EffectReport",
    "Footprint",
    "KeySet",
    "analysis_for",
    "analyze_app",
    "analyze_program",
    "iter_children",
    "sql_key_footprint",
]

#: All effect atoms, in canonical display order.
ALL_EFFECTS: tuple[str, ...] = (
    EFFECT_STATE_READ,
    EFFECT_STATE_WRITE,
    EFFECT_NONDET,
    EFFECT_EXTERNAL,
)

#: Footprint object class covering every register object (``reg:g:*``
#: globals and ``reg:sess:*`` sessions); keys are full register names.
REGISTERS = "registers"

#: Diagnostic severities, weakest first.
SEVERITIES: tuple[str, ...] = ("info", "warning", "error")

_SEVERITY_ORDER: dict[str, int] = {name: i for i, name in enumerate(SEVERITIES)}

#: Effect atoms that make a value a divergence/determinism taint.
_TAINT_EFFECTS: frozenset = frozenset({EFFECT_NONDET, EFFECT_EXTERNAL})


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
    """The direct AST children of ``node`` (the analysis walk order)."""
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


def sql_key_footprint(sql: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(read_tables, write_tables)`` of one SQL statement text.

    The single source of truth shared by the static side (constant SQL
    arguments) and the dynamic soundness harness (executed statements),
    so containment holds by construction.  Write statements report their
    tables on both sides (UPDATE/DELETE read the rows they match).
    Raises on unparseable text.
    """
    stmt = parse_sql(sql)
    tables = _sql_tables_touched(stmt)
    if _sql_is_write(stmt):
        return tables, tables
    return tables, ()


# --------------------------------------------------------------------------
# Report data types
# --------------------------------------------------------------------------


@dataclass
class KeySet:
    """Over-approximate set of keys touched on one shared object.

    ``keys`` are exact, ``prefixes`` cover key families whose tail is
    runtime data (register names), and ``top`` means any key (⊤).  Every
    widening appends a human-readable reason to ``taints``.
    """

    keys: set[str] = field(default_factory=set)
    prefixes: set[str] = field(default_factory=set)
    top: bool = False
    taints: list[str] = field(default_factory=list)

    def add_key(self, key: str) -> None:
        self.keys.add(key)

    def add_prefix(self, prefix: str, reason: str | None = None) -> None:
        self.prefixes.add(prefix)
        if reason is not None:
            self._taint(reason)

    def widen(self, reason: str) -> None:
        self.top = True
        self._taint(reason)

    def _taint(self, reason: str) -> None:
        if reason not in self.taints:
            self.taints.append(reason)

    def merge(self, other: KeySet) -> None:
        self.keys |= other.keys
        self.prefixes |= other.prefixes
        self.top = self.top or other.top
        for reason in other.taints:
            self._taint(reason)

    def covers(self, key: str) -> bool:
        if self.top or key in self.keys:
            return True
        return any(key.startswith(prefix) for prefix in self.prefixes)

    def snapshot(self) -> tuple:
        return (frozenset(self.keys), frozenset(self.prefixes), self.top)

    def to_json(self) -> dict:
        return {
            "keys": sorted(self.keys),
            "prefixes": sorted(self.prefixes),
            "top": self.top,
            "taints": list(self.taints),
        }


@dataclass
class Footprint:
    """Per-object read/write key sets for one program or function."""

    reads: dict[str, KeySet] = field(default_factory=dict)
    writes: dict[str, KeySet] = field(default_factory=dict)

    def read_set(self, obj: str) -> KeySet:
        return self.reads.setdefault(obj, KeySet())

    def write_set(self, obj: str) -> KeySet:
        return self.writes.setdefault(obj, KeySet())

    def merge(self, other: Footprint) -> None:
        for obj, keyset in other.reads.items():
            self.read_set(obj).merge(keyset)
        for obj, keyset in other.writes.items():
            self.write_set(obj).merge(keyset)

    @staticmethod
    def class_of(obj: str) -> str:
        """The footprint object class of a runtime object name."""
        return REGISTERS if obj.startswith("reg:") else obj

    def covers_read(self, obj: str, key: str) -> bool:
        keyset = self.reads.get(self.class_of(obj))
        return keyset is not None and keyset.covers(key)

    def covers_write(self, obj: str, key: str) -> bool:
        keyset = self.writes.get(self.class_of(obj))
        return keyset is not None and keyset.covers(key)

    def snapshot(self) -> tuple:
        return (
            tuple(sorted((obj, ks.snapshot()) for obj, ks in self.reads.items())),
            tuple(sorted((obj, ks.snapshot()) for obj, ks in self.writes.items())),
        )

    def to_json(self) -> dict:
        return {
            "reads": {obj: ks.to_json() for obj, ks in sorted(self.reads.items())},
            "writes": {obj: ks.to_json() for obj, ks in sorted(self.writes.items())},
        }


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding with a stable code and severity."""

    code: str
    severity: str
    message: str
    script: str
    function: str | None
    nid: int

    def format(self) -> str:
        where = self.script
        if self.function is not None:
            where += f":{self.function}()"
        return f"{self.code} {self.severity}: {self.message} [{where} nid {self.nid}]"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "function": self.function,
            "nid": self.nid,
        }


class EffectReport:
    """The result of analyzing one weblang program.

    The program is referenced weakly (like the compile cache) so a
    cached report never keeps a collected program alive; per-node effect
    lookups are keyed by node identity and are only meaningful while the
    caller holds the program.
    """

    __slots__ = (
        "_program_ref",
        "script",
        "effects",
        "function_effects",
        "footprint",
        "function_footprints",
        "diagnostics",
        "_node_effects",
    )

    def __init__(
        self,
        program: Program,
        effects: frozenset,
        function_effects: dict[str, frozenset],
        footprint: Footprint,
        function_footprints: dict[str, Footprint],
        diagnostics: list[Diagnostic],
        node_effects: dict[int, frozenset],
    ):
        try:
            self._program_ref: Callable = weakref.ref(program)
        except TypeError:  # pragma: no cover - Program is weakref-able
            self._program_ref = (lambda _program=program: _program)
        self.script = program.name
        self.effects = effects
        self.function_effects = function_effects
        self.footprint = footprint
        self.function_footprints = function_footprints
        self.diagnostics = diagnostics
        self._node_effects = node_effects

    @property
    def program(self) -> Program | None:
        """The analyzed program, or None once it has been collected."""
        return self._program_ref()

    def effects_of(self, node: Node) -> frozenset:
        """The effect set of one AST node of the analyzed program."""
        try:
            return self._node_effects[id(node)]
        except KeyError:
            raise KeyError(
                f"node {type(node).__name__} (nid {getattr(node, 'nid', '?')}) "
                f"is not part of program {self.script!r}"
            ) from None

    def function_pure(self, name: str) -> bool:
        """True when function ``name`` can never yield an intent."""
        return not self.function_effects[name]

    @property
    def divergence_hazard(self) -> bool:
        """True when grouped (SIMD) re-execution of this script risks
        divergence: some control flow or state write depends on
        nondeterminism (W001/W003)."""
        return any(d.code in ("W001", "W003") for d in self.diagnostics)

    def severity_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in SEVERITIES}
        for diag in self.diagnostics:
            counts[diag.severity] += 1
        return counts

    def max_severity(self) -> str | None:
        worst: str | None = None
        for diag in self.diagnostics:
            if worst is None or _SEVERITY_ORDER[diag.severity] > _SEVERITY_ORDER[worst]:
                worst = diag.severity
        return worst

    def to_json(self) -> dict:
        return {
            "script": self.script,
            "effects": sorted(self.effects),
            "functions": {
                name: sorted(eff)
                for name, eff in sorted(self.function_effects.items())
            },
            "footprint": self.footprint.to_json(),
            "divergence_hazard": self.divergence_hazard,
            "diagnostics": [
                d.to_json()
                for d in sorted(self.diagnostics, key=lambda d: (d.nid, d.code))
            ],
        }


# --------------------------------------------------------------------------
# The analyzer
# --------------------------------------------------------------------------


class _Scope:
    """One variable scope: the top level (``fn`` None, whose variables
    *are* the globals) or one function body."""

    __slots__ = ("fn", "stmts", "global_names", "vars")

    def __init__(self, fn: str | None, stmts: list, global_names: frozenset):
        self.fn = fn
        self.stmts = stmts
        self.global_names = global_names
        self.vars: dict[str, set] = {}


def _collect_global_names(stmts: list) -> frozenset:
    names: set[str] = set()
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if type(node) is GlobalDecl:
            names.update(node.names)
        stack.extend(iter_children(node))
    return frozenset(names)


class _Analyzer:
    """Analyzes one program for one dialect (db/kv/session names)."""

    def __init__(self, program: Program, db_name: str, kv_name: str,
                 session_cookie: str):
        self.program = program
        self.db_name = db_name
        self.kv_name = kv_name
        self.session_cookie = session_cookie
        self.functions: dict[str, FuncDecl] = dict(program.functions)
        self.func_effects: dict[str, frozenset] = {}
        self.func_footprints: dict[str, Footprint] = {
            name: Footprint() for name in self.functions
        }
        self.top_footprint = Footprint()
        self.node_effects: dict[int, frozenset] = {}
        self.diagnostics: list[Diagnostic] = []
        self._diag_seen: set[tuple] = set()
        self._callees: dict[str | None, set[str]] = {}
        self.scopes: list[_Scope] = [
            _Scope(None, program.body, frozenset())
        ] + [
            _Scope(name, decl.body, _collect_global_names(decl.body))
            for name, decl in self.functions.items()
        ]
        #: Top-level variables are the globals; alias the main scope's
        #: taint map so function scopes see (and update) it directly.
        self.global_taints: dict[str, set] = self.scopes[0].vars

    # -- call resolution (mirrors Interpreter._eval_call dispatch) --------

    def _resolve(self, name: str) -> tuple[str, frozenset]:
        """``(kind, effects)``, kind as :func:`call_kind` says."""
        kind = call_kind(name, self.functions)
        if kind == "builtin":
            return kind, BUILTIN_EFFECTS[name]
        if kind == "user":
            return kind, self.func_effects.get(name, EFFECTS_NONE)
        return kind, EFFECTS_NONE

    # -- pass 1: function effect fixpoint over the call graph -------------

    def _local_scan(self, scope: _Scope) -> tuple[frozenset, set]:
        effects: set = set()
        callees: set = set()
        stack = list(scope.stmts)
        while stack:
            node = stack.pop()
            if type(node) is Call:
                kind, eff = self._resolve(node.name)
                if kind == "builtin":
                    effects |= eff
                elif kind == "user":
                    callees.add(node.name)
                elif kind == "unknown":
                    self._diag(
                        "W004", "error",
                        f"call to unknown function {node.name}()",
                        scope, node.nid,
                    )
            stack.extend(iter_children(node))
        return frozenset(effects), callees

    def _compute_function_effects(self) -> None:
        local: dict[str | None, frozenset] = {}
        for scope in self.scopes:
            local[scope.fn], self._callees[scope.fn] = self._local_scan(scope)
        self.func_effects = {
            name: local[name] for name in self.functions
        }
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                merged = set(local[name])
                for callee in self._callees[name]:
                    merged |= self.func_effects[callee]
                new = frozenset(merged)
                if new != self.func_effects[name]:
                    self.func_effects[name] = new
                    changed = True

    # -- per-node effect sets ----------------------------------------------

    def _effects_of(self, node: Node) -> frozenset:
        memo = self.node_effects
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        eff: set = set()
        if type(node) is Call:
            kind, resolved = self._resolve(node.name)
            if kind in ("builtin", "user"):
                eff |= resolved
        for child in iter_children(node):
            eff |= self._effects_of(child)
        result = frozenset(eff)
        memo[id(node)] = result
        return result

    # -- pass 2: flow-insensitive variable taints -------------------------

    def _var_taint(self, scope: _Scope, name: str) -> frozenset:
        if scope.fn is None or name in scope.global_names:
            return frozenset(self.global_taints.get(name, EFFECTS_NONE))
        return frozenset(scope.vars.get(name, EFFECTS_NONE))

    def _add_var_taint(self, scope: _Scope, name: str, add: frozenset) -> bool:
        if not add:
            return False
        target = (
            self.global_taints
            if scope.fn is None or name in scope.global_names
            else scope.vars
        )
        current = target.setdefault(name, set())
        before = len(current)
        current |= add
        return len(current) != before

    def _expr_taint(self, node: Node, scope: _Scope) -> frozenset:
        taint: set = set()
        stack = [node]
        while stack:
            current = stack.pop()
            kind = type(current)
            if kind is Var:
                taint |= self._var_taint(scope, current.name)
            elif kind is Call:
                what, eff = self._resolve(current.name)
                if what in ("builtin", "user"):
                    taint |= eff & _TAINT_EFFECTS
            stack.extend(iter_children(current))
        return frozenset(taint)

    def _compute_taints(self) -> None:
        changed = True
        while changed:
            changed = False
            for scope in self.scopes:
                stack = list(scope.stmts)
                while stack:
                    node = stack.pop()
                    kind = type(node)
                    if kind is Assign or kind is IndexAssign:
                        add = self._expr_taint(node.expr, scope)
                        changed |= self._add_var_taint(scope, node.name, add)
                    elif kind is Foreach:
                        add = self._expr_taint(node.subject, scope)
                        changed |= self._add_var_taint(scope, node.val_var, add)
                        if node.key_var is not None:
                            changed |= self._add_var_taint(
                                scope, node.key_var, add
                            )
                    stack.extend(iter_children(node))

    # -- pass 3: diagnostics + local footprints ----------------------------

    def _diag(self, code: str, severity: str, message: str, scope: _Scope,
              nid: int) -> None:
        key = (code, scope.fn, nid)
        if key in self._diag_seen:
            return
        self._diag_seen.add(key)
        self.diagnostics.append(Diagnostic(
            code=code,
            severity=severity,
            message=message,
            script=self.program.name,
            function=scope.fn,
            nid=nid,
        ))

    def _scope_footprint(self, scope: _Scope) -> Footprint:
        if scope.fn is None:
            return self.top_footprint
        return self.func_footprints[scope.fn]

    def _hazard(self, cond: Node, scope: _Scope) -> bool:
        """True when ``cond`` may evaluate differently across requests
        that share a control-flow group (nondet reaches it directly or
        through a variable)."""
        taints = (self._effects_of(cond) | self._expr_taint(cond, scope))
        return EFFECT_NONDET in taints

    def _walk_block(self, stmts: list, scope: _Scope, divergent: bool) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, scope, divergent)

    def _walk_stmt(self, node: Node, scope: _Scope, divergent: bool) -> None:
        kind = type(node)
        if kind is If:
            any_hazard = False
            for cond, body in node.branches:
                if self._hazard(cond, scope):
                    any_hazard = True
                    self._diag(
                        "W001", "warning",
                        "branch condition may depend on nondeterminism; "
                        "grouped re-execution can diverge here",
                        scope, cond.nid,
                    )
                self._walk_expr(cond, scope, divergent)
                self._walk_block(body, scope, divergent or any_hazard)
            if node.else_body is not None:
                self._walk_block(node.else_body, scope, divergent or any_hazard)
        elif kind is While:
            hazard = self._hazard(node.cond, scope)
            if hazard:
                self._diag(
                    "W001", "warning",
                    "loop condition may depend on nondeterminism; "
                    "grouped re-execution can diverge here",
                    scope, node.cond.nid,
                )
            self._walk_expr(node.cond, scope, divergent)
            self._walk_block(node.body, scope, divergent or hazard)
        elif kind is Foreach:
            hazard = EFFECT_NONDET in (
                self._effects_of(node.subject)
                | self._expr_taint(node.subject, scope)
            )
            if hazard:
                self._diag(
                    "W001", "warning",
                    "foreach subject may depend on nondeterminism; "
                    "iteration count can diverge across a group",
                    scope, node.subject.nid,
                )
            self._walk_expr(node.subject, scope, divergent)
            self._walk_block(node.body, scope, divergent or hazard)
        else:
            for child in iter_children(node):
                self._walk_expr(child, scope, divergent)

    def _walk_expr(self, node: Node, scope: _Scope, divergent: bool) -> None:
        kind = type(node)
        if kind is Ternary:
            hazard = self._hazard(node.cond, scope)
            if hazard:
                self._diag(
                    "W001", "warning",
                    "ternary condition may depend on nondeterminism; "
                    "grouped re-execution can diverge here",
                    scope, node.cond.nid,
                )
            self._walk_expr(node.cond, scope, divergent)
            self._walk_expr(node.then, scope, divergent or hazard)
            self._walk_expr(node.other, scope, divergent or hazard)
            return
        if kind is BinOp and node.op in ("&&", "||"):
            hazard = self._hazard(node.left, scope)
            if hazard:
                self._diag(
                    "W001", "warning",
                    f"short-circuit '{node.op}' left operand may depend on "
                    "nondeterminism; evaluation of the right operand can "
                    "diverge across a group",
                    scope, node.left.nid,
                )
            self._walk_expr(node.left, scope, divergent)
            self._walk_expr(node.right, scope, divergent or hazard)
            return
        if kind is Call:
            self._visit_call(node, scope, divergent)
        for child in iter_children(node):
            self._walk_expr(child, scope, divergent)

    def _visit_call(self, node: Call, scope: _Scope, divergent: bool) -> None:
        name = node.name
        what, eff = self._resolve(name)
        if what == "user":
            if divergent and EFFECT_STATE_WRITE in eff:
                self._diag(
                    "W003", "warning",
                    f"call to {name}() writes shared state under a branch "
                    "that may diverge across a group",
                    scope, node.nid,
                )
            return
        if what != "builtin" or name not in STATE_BUILTINS:
            return
        may_write = self._record_state_call(node, scope)
        if divergent and may_write:
            self._diag(
                "W003", "warning",
                f"{name}() writes shared state under a branch that may "
                "diverge across a group",
                scope, node.nid,
            )

    # -- footprint extraction ----------------------------------------------

    def _const_value(self, node: Node | None) -> tuple[bool, object]:
        """Constant-fold ``node``: literals, ``.`` concatenation, unary
        minus, and pure builtins applied to constants."""
        if node is None:
            return False, None
        kind = type(node)
        if kind is Lit:
            return True, node.value
        if kind is BinOp and node.op == ".":
            ok_left, left = self._const_value(node.left)
            if not ok_left:
                return False, None
            ok_right, right = self._const_value(node.right)
            if not ok_right:
                return False, None
            try:
                return True, to_str(left) + to_str(right)
            except Exception:
                return False, None
        if kind is UnOp and node.op == "-":
            ok, value = self._const_value(node.operand)
            if (
                ok
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                return True, -value
            return False, None
        if (
            kind is Call
            and node.name in PURE_BUILTINS
            and node.name not in MUTATING_BUILTINS
            and node.name not in self.functions  # user functions shadow pure
        ):
            values = []
            for arg in node.args:
                ok, value = self._const_value(arg)
                if not ok:
                    return False, None
                values.append(value)
            try:
                return True, PURE_BUILTINS[node.name](*values)
            except Exception:
                return False, None
        return False, None

    def _key_taint_reason(self, node: Call, arg: Node | None,
                          scope: _Scope) -> str:
        taints = self._expr_taint(arg, scope) if arg is not None else frozenset()
        trail = ", ".join(sorted(taints)) if taints else "request/derived data"
        return f"{node.name}() at nid {node.nid} (taints: {trail})"

    def _check_key_arg(self, node: Call, arg: Node | None,
                       scope: _Scope) -> None:
        if arg is None:
            return
        if EFFECT_EXTERNAL in self._expr_taint(arg, scope):
            self._diag(
                "W002", "warning",
                f"{node.name}() state key derives from an external-call "
                "result; the audited key may not be reproducible",
                scope, node.nid,
            )

    def _record_state_call(self, node: Call, scope: _Scope) -> bool:
        """Record ``node``'s footprint contribution; returns whether the
        call may write shared state (refined for constant SQL)."""
        footprint = self._scope_footprint(scope)
        name = node.name
        args = node.args
        if name in ("db_query", "db_exec"):
            arg = args[0] if args else None
            self._check_key_arg(node, arg, scope)
            is_const, value = self._const_value(arg)
            if is_const:
                try:
                    reads, writes = sql_key_footprint(to_str(value))
                except Exception:
                    reason = (
                        f"{name}() at nid {node.nid} "
                        "(constant SQL failed to parse)"
                    )
                    footprint.read_set(self.db_name).widen(reason)
                    footprint.write_set(self.db_name).widen(reason)
                    return True
                for table in reads:
                    footprint.read_set(self.db_name).add_key(table)
                for table in writes:
                    footprint.write_set(self.db_name).add_key(table)
                return bool(writes)
            reason = self._key_taint_reason(node, arg, scope)
            footprint.read_set(self.db_name).widen(reason)
            footprint.write_set(self.db_name).widen(reason)
            self._diag(
                "W005", "info",
                f"{name}() statement text is computed at runtime; db "
                f"footprint widened to all tables ({reason})",
                scope, node.nid,
            )
            return True
        if name in ("db_begin", "db_commit", "db_rollback"):
            # Transaction control: touches the db object, no keys.
            footprint.write_set(self.db_name)
            return True
        if name in ("kv_get", "kv_set"):
            arg = args[0] if args else None
            self._check_key_arg(node, arg, scope)
            keyset = (
                footprint.read_set(self.kv_name)
                if name == "kv_get"
                else footprint.write_set(self.kv_name)
            )
            is_const, value = self._const_value(arg)
            if is_const:
                try:
                    keyset.add_key(to_str(value))
                except Exception:
                    keyset.widen(f"{name}() at nid {node.nid} (unfoldable key)")
            else:
                reason = self._key_taint_reason(node, arg, scope)
                keyset.widen(reason)
                self._diag(
                    "W005", "info",
                    f"{name}() key is computed at runtime; kv footprint "
                    f"widened ({reason})",
                    scope, node.nid,
                )
            return name == "kv_set"
        if name in ("reg_read", "reg_write"):
            arg = args[0] if args else None
            self._check_key_arg(node, arg, scope)
            keyset = (
                footprint.read_set(REGISTERS)
                if name == "reg_read"
                else footprint.write_set(REGISTERS)
            )
            is_const, value = self._const_value(arg)
            if is_const:
                try:
                    keyset.add_key(f"reg:g:{to_str(value)}")
                except Exception:
                    keyset.add_prefix(
                        "reg:g:",
                        f"{name}() at nid {node.nid} (unfoldable register)",
                    )
            else:
                reason = self._key_taint_reason(node, arg, scope)
                keyset.add_prefix("reg:g:", reason)
                self._diag(
                    "W005", "info",
                    f"{name}() register name is computed at runtime; "
                    f"footprint widened to the reg:g: family ({reason})",
                    scope, node.nid,
                )
            return name == "reg_write"
        if name in ("session_get", "session_put"):
            # The register name carries the request's session cookie —
            # per-request data by design, so the prefix is the exact
            # static answer, not a widening worth a diagnostic.
            keyset = (
                footprint.read_set(REGISTERS)
                if name == "session_get"
                else footprint.write_set(REGISTERS)
            )
            keyset.add_prefix("reg:sess:")
            return name == "session_put"
        return EFFECT_STATE_WRITE in BUILTIN_EFFECTS.get(name, EFFECTS_NONE)

    # -- driver ------------------------------------------------------------

    def analyze(self) -> EffectReport:
        self._compute_function_effects()
        self._compute_taints()
        for scope in self.scopes:
            self._walk_block(scope.stmts, scope, divergent=False)
        # Propagate callee footprints transitively into callers.
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                footprint = self.func_footprints[name]
                before = footprint.snapshot()
                for callee in self._callees[name]:
                    footprint.merge(self.func_footprints[callee])
                changed = changed or footprint.snapshot() != before
        for callee in self._callees[None]:
            self.top_footprint.merge(self.func_footprints[callee])
        # Per-node effect sets for every node, function decls included.
        program_effects: set = set()
        for stmt in self.program.body:
            program_effects |= self._effects_of(stmt)
        for name, decl in self.functions.items():
            for stmt in decl.body:
                self._effects_of(stmt)
            self.node_effects[id(decl)] = self.func_effects[name]
        self.diagnostics.sort(key=lambda d: (d.nid, d.code))
        return EffectReport(
            program=self.program,
            effects=frozenset(program_effects),
            function_effects=dict(self.func_effects),
            footprint=self.top_footprint,
            function_footprints=dict(self.func_footprints),
            diagnostics=self.diagnostics,
            node_effects=self.node_effects,
        )


# --------------------------------------------------------------------------
# Entry points and cache
# --------------------------------------------------------------------------


def analyze_program(
    program: Program,
    db_name: str = "db:main",
    kv_name: str = "kv:apc",
    session_cookie: str = "sess",
) -> EffectReport:
    """Analyze ``program`` (uncached); see :func:`analysis_for`."""
    return _Analyzer(program, db_name, kv_name, session_cookie).analyze()


#: (id(program), dialect) -> (weakref-to-program, EffectReport), the same
#: identity-plus-dialect scheme as the compile cache.
_CACHE: dict[tuple, tuple[Callable, EffectReport]] = {}


def analysis_for(
    program: Program,
    db_name: str = "db:main",
    kv_name: str = "kv:apc",
    session_cookie: str = "sess",
) -> EffectReport:
    """The :class:`EffectReport` of ``program``, analyzed on first use
    and cached per process (keyed by program identity plus dialect)."""
    key = (id(program), db_name, kv_name, session_cookie)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    report = analyze_program(program, db_name, kv_name, session_cookie)
    try:
        # The dict object is bound as a default so eviction still works
        # during interpreter shutdown (module globals may be cleared).
        ref: Callable = weakref.ref(
            program,
            lambda _ref, _key=key, _cache=_CACHE: _cache.pop(_key, None),
        )
    except TypeError:  # pragma: no cover - Program is weakref-able
        ref = (lambda _program=program: _program)
    _CACHE[key] = (ref, report)
    return report


def clear_cache() -> None:
    """Drop all cached reports (tests use this)."""
    _CACHE.clear()


def analyze_app(app: Application) -> dict[str, EffectReport]:
    """Analyze every script of an application with its dialect names."""
    return {
        name: analysis_for(
            app.script(name), app.db_name, app.kv_name, app.session_cookie
        )
        for name in sorted(app.scripts)
    }

