"""Generated source for the compiled engine: every statement, every
expression.

A block — a function body, the script's body — is one generated Python
function (:func:`region`; the script's is cut past :data:`_SIZE` into
parts that run in order, one that falls through returning
:data:`_NEXT`).  A block that may yield an intent is a generator
function: a state operation, a non-deterministic built-in or an external
call yields its intent in line, a call of an impure user function
is ``yield from`` its body, of a pure one a plain call, with the frame
dict and the depth check in the source; ``return`` is Python's.  An
``if`` is a Python ``if`` that folds its arm's digest constant, a loop a
Python loop that folds ``loop`` per trip after binding the key and a
copy-on-write handle of the value, and ``loopx`` after the last (a
fold-free one ``loopx`` and its trip count only).  An index assignment
walks its path with the compiler's ``root`` / ``step`` / ``finish``
(§4.3's container rules).  A loop or branch nested past :data:`_LOOPS` /
:data:`_INDENT`, or an expression past :data:`_NEST`, is drained into a
generated function of its own.

**Python locals.**  Every region keeps the variables it touches,
``steps`` and the flow digest in Python locals, loaded from the frame
(a missing variable is null) at entry.  They are written back where
something reads them: before a call out of the region — a user
function, a drained statement, an index path's ``root`` / ``step`` /
``finish`` — what the call may read and the **shared** globals (at top
level those a function declares ``global``, in a function those it
declares), everything before a call whose ``break`` / ``continue`` no
loop of the region would catch, and at ``return`` and a part's end
(the shared ones only, at a function's).  After a call ``steps``,
``flow``, what a drained statement touched and the shared globals are
reloaded.  What a loop does not assign is written back once, before it.
A run that raises keeps nothing: nobody reads its frame.  A function
that says ``global`` has an ``_Env`` frame, so the write-backs and loads
resolve a name as the oracle's ``store`` / ``lookup`` do, and ``global
$x`` reloads ``$x``'s local from the globals.

**In line.**  An expression built from constants, frame variables, the
operators whose :data:`~repro.lang.values.EXACT_OPS` entry has a Python
infix form (:data:`_INFIX`), ``!``, ``-``, ``$v[<key>]``, pure built-in
calls (an :data:`~repro.lang.builtins.EXACT_CALLS` entry as its Python
form), constant-key array literals, and ``&&`` / ``||`` and ternaries
whose operands that may not run need only type tests, runs as Python
behind type guards, chained with its calls in evaluation order; when
they hold, one add books its steps, and nothing raises.  Where one
fails, or the expression does not qualify, the statement runs its
**general form**: three-address code in which each operator calls its
:mod:`~repro.lang.simd` per-class helper (``_binop``, ``_unop``,
``_index``, ``_add_item``, ``_call_builtin``, ``_truth``) on operands
held in temporaries — each in line behind its guards where it
qualifies — booking ``steps`` node by node.

No program text reaches the generated source: names, constants and
helpers are arguments of a factory whose parameters the generator
names, so one source (one ``compile``) serves every region of a shape.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from functools import partial
from hashlib import blake2b

from repro.common.digest import _FNV_PRIME, _MASK, branch_mix
from repro.common.errors import WeblangError
from repro.lang import simd
from repro.lang.analysis import (
    branches,
    call_kind,
    fold_free,
    iter_children,
    nodes,
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
    GlobalDecl,
    If,
    Index,
    IndexAssign,
    Lit,
    Node,
    Return,
    Ternary,
    UnOp,
    Var,
    While,
)
from repro.lang.builtins import EXACT_CALLS, EXTERNAL_BUILTINS
from repro.lang.interp import (
    _MAX_CALL_DEPTH,
    REQUEST_INPUTS,
    Interpreter,
    StateOpIntent,
    _BreakSignal,
    _ContinueSignal,
    _Env,
)
from repro.lang.simd import _APPEND, _copy_value
from repro.lang.values import (
    EXACT_OPS,
    PhpArray,
    binop,
    compound,
    thaw_value,
    to_str,
    truthy,
    unop,
)
from repro.multivalue.multivalue import MultiValue

#: Plain form -> Python infix operator, for the operators run in line.
_INFIX: dict[object, str] = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.mod: "%",
    operator.lt: "<", operator.le: "<=", operator.gt: ">", operator.ge: ">=",
    operator.eq: "==", operator.ne: "!=",
}

#: The operators that make a bool, which no operator above takes.
_TESTS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: How deep an expression may nest and still run in line: Python's
#: parser refuses 200 nested parentheses.
_DEPTH = 32

#: How long a generated function grows before the next statement goes
#: into another: compiling a source takes ~100 bytes a character at peak.
_SIZE = 3000

#: Loops one region nests (Python allows 20 nested blocks; a loop and
#: its ``try`` take two), and how far it indents a branch (100 levels);
#: an expression's arms indent on to :data:`_NEST` characters.
_LOOPS = 6
_INDENT = 40
_NEST = 4 * 80

#: What a part of a body returns when it falls through to the next.
_NEXT = object()

#: The values an in-line operand may hold: not a multivalue.
_OK = frozenset({str, int, float, bool, type(None), PhpArray})

#: A line that stands for reloading the shared variables after a call
#: (which of them have locals is known once the region is made).
_RELOAD = "\0"


def _scope(state, slots: dict[str, object]) -> _Env:
    """The frame of a function that says ``global``, over ``slots``."""
    frame = _Env(state.globals)
    frame.vars = slots
    return frame


def _load(value: object, state, copy: bool = False) -> object:
    """A variable's value as a general form reads it: a multivalue books
    a multivalent step; with ``copy`` an array leaving it is copied."""
    kind = type(value)
    if kind is MultiValue:
        state.multivalent(len(value.values))
        return _copy_value(value) if copy else value
    if copy and kind is PhpArray:
        return value.copy()
    return value


#: The module a generated function runs in: no builtins beyond these.
_HELPERS: dict[str, object] = {
    "__builtins__": {}, "type": type, "int": int, "str": str, "len": len,
    "list": list, "zip": zip, "map": map, "bool": bool,
    "isinstance": isinstance, "PhpArray": PhpArray,
    "MultiValue": MultiValue, "_OK": _OK, "_NEXT": _NEXT,
    "_INDEXABLE": (PhpArray, str, MultiValue),
    "_PRIME": _FNV_PRIME, "_MASK": _MASK, "WeblangError": WeblangError,
    "StateOpIntent": StateOpIntent, "_scope": _scope, "_load": _load,
    "truthy": truthy, "to_str": to_str,
    "_BreakSignal": _BreakSignal, "_ContinueSignal": _ContinueSignal,
    **{name: getattr(simd, name) for name in """
        _truth _binop _unop _index _add_item _call_builtin
        _copy_value _foreach_items _text _descend _release _input _strs
        _frozen _merged_replies _registers _intent""".split()},
}


#: ``make`` of each generated source, by the source's digest (the
#: sources themselves are not kept).
_MADE: dict[bytes, Callable[..., Callable]] = {}


def _factory(source: str) -> Callable[..., Callable]:
    """``make(b0, b1, ...)`` of one generated source, compiled once."""
    key = blake2b(source.encode(), digest_size=16).digest()
    if key not in _MADE:
        if len(_MADE) >= 1024:
            _MADE.clear()
        scope: dict[str, object] = {}  # every source shares one module
        exec(compile(source, "<weblang region>", "exec"), _HELPERS, scope)
        _MADE[key] = scope["make"]  # type: ignore[assignment]
    return _MADE[key]


#: What :func:`_walk` finds of a subtree that touches no variable and
#: no flow.
_NOTHING: tuple = (frozenset(), frozenset(), frozenset(), False)


def _walk(comp, node: Node | list[Node]) -> tuple:
    """``(reads, assigns, indexed, flows)`` of ``node`` (or a list of
    them): the variables it reads, assigns (or a foreach binds) and
    index-assigns, and whether it may fold the flow digest or raise a
    signal (:func:`~repro.lang.analysis.branches`).  Found bottom-up,
    once per node and compiler."""
    key = id(node)
    if key in comp.walks:
        return comp.walks[key][1]
    kind = type(node)
    reads: set[str] = set()
    assigns: set[str] = set()
    indexed: set[str] = set()
    flows = branches(node, comp.funcs)
    if kind is Var:
        reads.add(node.name)
    elif kind is Assign:
        assigns.add(node.name)
    elif kind is IndexAssign:
        indexed.add(node.name)
    elif kind is Foreach:
        assigns.update(var for var in (node.key_var, node.val_var) if var)
    for child in node if kind is list else iter_children(node):
        got = _walk(comp, child)
        if got is not _NOTHING:
            reads |= got[0]
            assigns |= got[1]
            indexed |= got[2]
            flows = flows or got[3]
    found = (frozenset(reads), frozenset(assigns), frozenset(indexed),
             flows) if reads or assigns or indexed or flows else _NOTHING
    comp.walks[key] = (node, found)  # the node is kept: its id its own
    return found


#: An in-line value: its Python expression, its type (``None``: any
#: value of :data:`_OK`) and the steps its nodes book.
_Value = tuple[str, type | None, int]

#: A general form: the lines evaluating it, and the source of its value.
_Code = tuple[list[str], str]

#: The state built-ins: name -> (arity, intent kind, the slots' objects
#: and operands — ``{0}`` / ``{1}`` the arguments, ``{o}`` the dialect's
#: database, KV store or session cookie — and what converts a reply:
#: ``None`` for a write).
_STATE_OPS: dict[str, tuple] = {
    "kv_get": (1, "kv_get", "[{o}] * state.size",
               "list(zip(_strs({0}, state)))", thaw_value),
    "kv_set": (2, "kv_set", "[{o}] * state.size",
               "list(zip(_strs({0}, state), _frozen({1}, state)))", None),
    "reg_read": (1, "register_read", "_registers({0}, state)",
                 "[()] * state.size", thaw_value),
    "reg_write": (2, "register_write", "_registers({0}, state)",
                  "list(zip(_frozen({1}, state)))", None),
    "session_get": (0, "register_read", "_registers(None, state, {o})",
                    "[()] * state.size", thaw_value),
    "session_put": (1, "register_write", "_registers(None, state, {o})",
                    "list(zip(_frozen({0}, state)))", None),
    **{name: (1, "db_statement", "[{o}] * state.size",
              "list(zip(_strs({0}, state)))",
              partial(Interpreter._convert_db_result, name))
       for name in ("db_query", "db_exec")},
    **{name: (0, name, "[{o}] * state.size", "[()] * state.size", None)
       for name in ("db_begin", "db_commit", "db_rollback")},
}


class _Region:
    """The source of one region, the values it binds, and what its
    locals hold at the line being made."""

    def __init__(self, comp, top: bool):
        self.comp = comp  # the compiler: purity, constants, functions
        self.top = top  # the frame is the globals
        #: The globals of the frame a call may read or write: at top
        #: level the ones a function declares ``global``, in a function
        #: the ones it declares.
        self.shared = comp.shared
        self.args: list[object] = []
        self.bound: dict[int, str] = {}
        self.names: dict[str, str] = {}
        self.locals: dict[str, str] = {}
        #: The locals (and ``steps``, ``flow``) written since the frame
        #: and ``state`` last saw them.
        self.dirty: set[str] = set()
        #: Steps the nodes entered so far book, not yet added to
        #: ``steps``: added before anything that can see them.
        self.owed = 0
        self.temps = self.loops = 0  # Python loops around the line made
        # Whether it echoes, yields an intent; whether the line made is
        # in a general form that stands for one.
        self.echo = self.yields = False
        self.plain = 0
        #: The guards, digest folds and step terms of the in-line
        #: expression being made.
        self.chain: list[str] = []
        self.folds: list[tuple[str, int, int]] = []
        self.extra: list[str] = []

    def bind(self, value: object) -> str:
        if id(value) not in self.bound:  # ``args`` keeps ``value`` alive
            self.args.append(value)
            self.bound[id(value)] = f"b{len(self.args) - 1}"
        return self.bound[id(value)]

    def name(self, var: str) -> str:
        if var not in self.names:
            self.names[var] = self.bind(var)
        return self.names[var]

    def local(self, var: str) -> str:
        return self.locals.setdefault(var, f"x{len(self.locals)}")

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    # -- the frame, ``steps`` and ``flow`` around calls ------------------

    def book(self, pad: str, steps: object) -> list[str]:
        if steps == 0 or steps == "0":
            return []
        self.dirty.add("steps")
        return [f"{pad}steps += {steps}"]

    def flush(self, pad: str) -> list[str]:
        owed, self.owed = self.owed, 0
        return self.book(pad, owed)

    def fold(self, pad: str, *mixes: str) -> list[str]:
        self.dirty.add("flow")
        return [f"{pad}if flow is not None:",
                *(f"{pad}    flow = ((flow ^ {mix}) * _PRIME) & _MASK"
                  for mix in mixes)]

    def sync(self, pad: str, names: set[str] | None = None,
             flows: bool = True) -> list[str]:
        """Lines writing back ``steps`` (what is owed added), ``flow``
        where ``flows``, and the variables ``names`` (``None``: all)."""
        slots = {"steps", "flow"} if flows else {"steps"}
        owed, self.owed = self.owed, 0
        self.dirty |= {"steps"} if owed else set()
        lines = [f"{pad}state.{slot} = {slot}"
                 + (f" = steps + {owed}" if owed and slot == "steps" else "")
                 for slot in ("steps", "flow") if slot in self.dirty & slots]
        self.dirty -= slots
        for var, local in self.locals.items():
            if local in self.dirty and (names is None or var in names):
                lines.append(f"{pad}env[{self.name(var)}] = {local}")
                self.dirty.discard(local)
        return lines

    def reload(self, pad: str, names: set[str] = frozenset(),
               flows: bool = True) -> list[str]:
        """Lines reloading ``steps``, ``flow`` where ``flows``, the
        variables ``names`` and the shared ones after a call."""
        lines = [f"{pad}steps = state.steps",
                 *([f"{pad}flow = state.flow"] if flows else []),
                 *(f"{pad}{self.local(var)} = get({self.name(var)})"
                   for var in sorted(names))]
        return lines + [pad + _RELOAD] if self.shared else lines

    def run(self, pure: bool, fn: Callable) -> str:
        """``fn(env, state)``, ``yield from`` where it may yield."""
        self.yields = self.yields or not pure
        return f"{'' if pure else 'yield from '}{self.bind(fn)}(env, state)"

    def call(self, pad: str, line: str | list[str], reads: set[str],
             writes: set[str] = frozenset(), flows: bool = True
             ) -> list[str]:
        """``line`` (or lines made at ``pad``), a call out that may read
        the variables ``reads`` and the shared ones, write ``writes`` and,
        where ``flows``, fold the digest or raise a signal: one no loop
        of the region catches leaves it, so everything is written back
        first."""
        body = [pad + line] if type(line) is str else line
        lines = self.sync(pad, None if flows and not self.loops
                          else reads | self.shared, flows)
        if flows and self.loops and writes:
            return [*lines, f"{pad}try:", *("    " + item for item in body),
                    f"{pad}finally:", *self.reload(pad + "    ", writes, flows)]
        return [*lines, *body, *self.reload(pad, writes, flows)]

    def branch(self, pad: str, cond: str, yes: Callable,
               no: Callable | None = None) -> list[str]:
        """``if cond: yes else: no`` (each a function of its pad); steps
        owed are booked in each arm."""
        lines = [] if no else self.flush(pad)
        inner, before, owed = pad + "    ", set(self.dirty), self.owed
        then = [*yes(inner), *self.flush(inner)] or [inner + "pass"]
        self.dirty, after, self.owed = before, self.dirty, owed
        other = [f"{pad}else:", *no(inner), *self.flush(inner)] if no else []
        self.dirty |= after
        return [*lines, f"{pad}if {cond}:", *then, *other]

    # -- expressions -------------------------------------------------------

    def operand(self, pad: str, node: Node, use: Callable, copy: bool = False,
                book: int = 0, inline: tuple | None = None) -> list[str]:
        """Lines evaluating ``node`` (copied where ``copy``), then ``use(pad,
        src, kind)``: in line where it qualifies (``kind`` its type,
        ``None`` for any but a multivalue), else, and where a guard fails,
        in its general form (``kind`` ``object``); ``book`` steps first.
        ``inline`` is ``(node, use, book)`` to run in line first."""
        got = None
        for fast_node, fast_use, fast_book in [*(inline or []),
                                               (node, use, book)]:
            got = self._inline(fast_node, copy)
            if got is not None:
                break
        if got is None:
            return self._general(pad, node, copy, use, book, 0)
        return self._guarded(pad, got, fast_use, fast_book,
                             lambda p: self._general(p, node, copy, use, book))

    def _inline(self, node: Node, copy: bool) -> tuple | None:
        """``node`` in line, its guards, folds and step terms, or ``None``."""
        self.chain, self.folds, self.extra = [], [], []
        got = self._value(node, None)
        if got is None:
            return None
        src, kind, steps = got
        if copy:
            src = self._copy(node, src, kind)
        return src, kind, steps, self.chain, self.folds, self.extra

    def _guarded(self, pad: str, got: tuple, use: Callable, book: int,
                 slow: Callable) -> list[str]:
        """An in-line value used behind its guards, ``slow`` where not."""
        src, kind, steps, chain, folds, extra = got

        def fast(pad: str) -> list[str]:
            lines = self.book(pad, " + ".join([str(steps + book + self.owed),
                                               *extra]))
            self.owed = 0
            for cond, then_mix, other_mix in folds:
                lines += self.fold(pad, f"({self.bind(then_mix)} if {cond} "
                                        f"else {self.bind(other_mix)})")
            return lines + use(pad, src, kind)

        if not chain:
            return fast(pad)
        return self.branch(pad, " and ".join(chain), fast, slow)

    def _general(self, pad: str, node: Node, copy: bool, use: Callable,
                 book: int = 0, plain: int = 1) -> list[str]:
        """The general form of ``node`` and ``use`` of it; where it stands
        for its in-line form (``plain``), its operands are not tried in
        line again."""
        self.owed += book
        self.plain += plain
        lines, src = self.expr(pad, node, copy)
        self.plain -= plain
        return [*lines, *self.flush(pad), *use(pad, src, object)]

    def child(self, pad: str, node: Node, copy: bool = False) -> _Code:
        """An operand of a general form: in line where it qualifies."""
        got = None if self.plain or type(node) is Var \
            else self._inline(node, copy)
        if got is None:
            return self.expr(pad, node, copy)
        if not got[3] and not got[4] and not got[5]:  # no local read
            self.owed += got[2]
            return [], got[0]
        held = self.temp()
        into = self._into(held)
        return self._guarded(pad, got, into, 0, lambda p: self._general(
            p, node, copy, into)), held

    def expr(self, pad: str, node: Node, copy: bool = False) -> _Code:
        """The general form of ``node``: lines evaluating it node by node,
        as the oracle does, and its value (a temporary or a constant)."""
        const = self.comp.const(node)
        if const is not None:
            self.owed += const[1]
            return [], self.bind(const[0])
        if len(pad) > _NEST:
            return self._drained_expr(pad, node, copy)
        if type(node) is Var:
            return self._read(pad, node.name, copy)
        return getattr(self, _GENERAL[type(node)])(pad, node, copy)

    def _drained_expr(self, pad: str, node: Node, copy: bool) -> _Code:
        made = _Region(self.comp, self.top)  # a function of its own
        lines, src = made.expr(_PAD, node, copy)
        pure, fn = _assembled(made, [*lines, *made.sync(_PAD, set()),
                                     f"{_PAD}return {src}"])
        held = self.temp()
        reads, _, _, flows = _walk(self.comp, node)
        return self.call(pad, f"{held} = {self.run(pure, fn)}", reads,
                         flows=flows), held

    def _read(self, pad: str, var: str, copy: bool) -> _Code:
        self.owed += 1
        held = self.temp()
        return [f"{pad}{held} = _load({self.local(var)}, state"
                f"{', True' if copy else ''})"], held

    def _operands(self, pad: str, nodes: list, copy: bool = False
                  ) -> tuple[list[str], list[str]]:
        """:meth:`child` of each of ``nodes``, in order."""
        lines, srcs = [], []
        for node in nodes:
            node_lines, src = self.child(pad, node, copy)
            lines += node_lines
            srcs.append(src)
        return lines, srcs

    def _apply(self, pad: str, helper: str, apply: Callable,
               *nodes: Node) -> _Code:
        """``helper(apply, *operands, state)`` after the operands."""
        self.owed += 1
        lines, srcs = self._operands(pad, list(nodes))
        held = self.temp()
        return [*lines, f"{pad}{held} = {helper}({self.bind(apply)}, "
                        f"{', '.join(srcs)}, state)"], held

    def _general_binop(self, pad: str, node: BinOp, copy: bool) -> _Code:
        if node.op in ("&&", "||"):
            return self._general_ternary(pad, node, copy)
        return self._apply(pad, "_binop", binop(node.op), node.left,
                           node.right)

    def _general_unop(self, pad: str, node: UnOp, _copy: bool) -> _Code:
        return self._apply(pad, "_unop", unop(node.op), node.operand)

    def _general_ternary(self, pad: str, node: Node, _copy: bool) -> _Code:
        """A ternary, or ``&&`` / ``||``: a ternary whose one arm is the
        truth of the right operand (a value: ``_unop`` per class where it
        differs); its condition decides where control goes, and folds
        the digest target nid * 2 + whether the second operand runs."""
        self.owed += 1
        logic = type(node) is BinOp
        negate = logic and node.op == "||"
        lines, cond = self.child(pad, node.left if logic else node.cond)
        taken, held = self.temp(), self.temp()
        kind = "sc" if logic else "tern"
        mixes = [self.bind(branch_mix(kind, node.nid * 2 + way))
                 for way in (1, 0)]
        lines += [*self._taken(pad, cond, f"{'logic' if logic else 'ternary'}"
                                          f"#{node.nid}", taken, negate),
                  *self.fold(pad, f"({mixes[0]} if {taken} else {mixes[1]})")]

        def arm(pad: str, arm_node: Node | None) -> list[str]:
            if arm_node is None:
                return [f"{pad}{held} = {negate}"]
            arm_lines, src = self.child(pad, arm_node)
            return [*arm_lines, f"{pad}{held} = " + (
                f"{src} if type({src}) is bool else _unop(truthy, {src}, "
                "state)" if logic else src)]

        return [*lines, *self.branch(
            pad, taken, lambda p: arm(p, node.right if logic else node.then),
            lambda p: arm(p, None if logic else node.other))], held

    def _taken(self, pad: str, cond: str, where: str, held: str,
               negate: bool = False) -> list[str]:
        """``held`` set to the truth of ``cond`` (or not): per class."""
        truth = (f"{cond} is True or {cond} is not False and "
                 f"_truth({cond}, {self.bind(where)})")
        return [f"{pad}{held} = {f'not ({truth})' if negate else truth}"]

    def _general_index(self, pad: str, node: Index, copy: bool) -> _Code:
        self.owed += 1
        lines, base = self.child(pad, node.base)
        const, held = self.comp.const(node.index), self.temp()
        if const is not None:
            self.owed += const[1]
            index = self.bind(const[0])
        else:  # the base is checked before the index runs
            lines.append(f"{pad}if not isinstance({base}, _INDEXABLE): raise "
                         "WeblangError("
                         f"{self.bind('indexing a non-array value')})")
            index_lines, index = self.child(pad, node.index)
            lines += index_lines
        lines.append(f"{pad}{held} = _index({base}, {index}, state)")
        if copy:
            lines.append(f"{pad}if type({held}) is PhpArray or type({held}) "
                         f"is MultiValue: {held} = _copy_value({held})")
        return lines, held

    def _general_arraylit(self, pad: str, node: ArrayLit, _copy: bool
                          ) -> _Code:
        built = self.comp.literal(node)
        if built is not None:  # a handle on the array built once
            self.owed += built[1]
            return [], f"{self.bind(built[0])}.copy()"
        self.owed += 1
        array = self.temp()
        lines = [f"{pad}{array} = PhpArray()"]
        for key, value in node.items:
            value_lines, src = self.child(pad, value, True)
            lines += value_lines
            const = (_APPEND, 0) if key is None else self.comp.const_key(key)
            if const is None:
                key_lines, key_src = self.child(pad, key)
                lines += key_lines
            else:  # ``[]``, or a constant normalised once
                self.owed += const[1]
                key_src = self.bind(const[0])
            lines.append(f"{pad}{array} = _add_item({array}, {key_src}, "
                         f"{src}, state)")
        return [*lines, f"{pad}if type({array}) is list: "  # one per slot
                        f"{array} = state.merge({array})"], array

    def _general_call(self, pad: str, node: Call, _copy: bool) -> _Code:
        self.owed += 1
        lines, args = self._operands(pad, node.args, True)
        name, held = node.name, self.temp()
        kind = call_kind(name, self.comp.funcs)
        if kind == "user":
            tail = self._user_call(pad, self.comp.funcs[name], args, held)
        elif kind == "input" and len(args) in (1, 2):
            tail = [f"{pad}{held} = _input(state, "
                    f"{self.bind(REQUEST_INPUTS[name])}, {self.bind(name)}, "
                    f"{args[0]}, {args[1] if len(args) == 2 else None})"]
        elif name in _STATE_OPS:
            tail = self._state_op(pad, name, args, held)
        elif kind == "builtin":  # a non-deterministic or external call
            self.yields = True
            tail = [f"{pad}{held} = yield _intent({self.bind(name)}, "
                    f"[{', '.join(args)}], state)",
                    f"{pad}{held} = " + ("True" if name in EXTERNAL_BUILTINS
                                         else f"state.merge(list({held}))")]
        elif kind == "pure":
            tail = [f"{pad}{held} = _call_builtin("
                    f"{self.bind(self.comp.builtin(node))}, "
                    f"[{', '.join(args)}], state)"]
        else:  # the arguments evaluate first, as in the oracle
            tail = self._fail(pad, f"{name}() expects 1 or 2 arguments"
                              if kind == "input" else
                              f"call to undefined function {name}()")
        return lines + tail, held

    def _state_op(self, pad: str, name: str, args: list[str],
                  held: str) -> list[str]:
        """A state built-in: its checks, then one ``StateOpIntent`` of
        every slot's object and operands, and what it returns."""
        arity, kind, objs, operands, convert = _STATE_OPS[name]
        comp, begin, tx = self.comp, name == "db_begin", \
            kind == name and name.startswith("db_")
        self.yields = True  # as the purity pass says, even where it raises
        obj = self.bind(comp.db_name if name.startswith("db_") else
                        comp.kv_name if name.startswith("kv_")
                        else comp.session_cookie)
        lines = [] if name.startswith("db_") else self._fail(
            pad, f"{name}() inside a DB transaction violates the object "
                 "model", "if state.in_tx: ")  # §4.4
        if len(args) != arity:
            return lines + self._fail(pad, f"{name}() expects {arity} "
                                           f"arguments, got {len(args)}")
        if tx:  # a transaction's begin, commit or rollback
            lines += self._fail(pad, "nested transactions are not allowed"
                                if begin else f"{name}() without a "
                                "transaction", f"if {'' if begin else 'not '}"
                                               "state.in_tx: ")
        lines.append(f"{pad}{held} = yield StateOpIntent({self.bind(kind)}, "
                     f"{objs.format(*args, o=obj)}, "
                     f"{operands.format(*args, o=obj)})")
        if tx:
            lines.append(f"{pad}state.in_tx = {begin}")
        return lines + [f"{pad}{held} = " + (
            f"state.merge(list(map(bool, {held})))" if name == "db_commit"
            else "None" if convert is None
            else f"_merged_replies({self.bind(convert)}, {held}, state)")]

    def _fail(self, pad: str, message: str, when: str = "") -> list[str]:
        return [f"{pad}{when}raise WeblangError({self.bind(message)})"]

    def _user_call(self, pad: str, func, args: list[str],
                   held: str) -> list[str]:
        """A call of user function ``func``: a new frame of its
        parameters, the depth checked, its body run (read at run time:
        around a cycle of calls it is compiled after the call)."""
        slots = ", ".join(f"{self.name(param)}: "
                          f"{args[index] if index < len(args) else 'None'}"
                          for index, param in enumerate(func.params))
        self.yields = self.yields or not func.pure
        return self.call(pad, [
            f"{pad}if state.depth >= {_MAX_CALL_DEPTH}: raise WeblangError("
            f"{self.bind('maximum call depth exceeded')})",
            f"{pad}state.depth += 1", f"{pad}try:",
            f"{pad}    {held} = {'' if func.pure else 'yield from '}"
            f"{self.bind(func)}.run({{{slots}}}, state)",
            f"{pad}finally:", f"{pad}    state.depth -= 1"], set())

    # -- in line -----------------------------------------------------------

    def _test(self, term: str) -> None:
        if term not in self.chain:
            self.chain.append(term)

    def _guard(self, src: str, want: type | None) -> str:
        """``src``, guarded to be a ``want`` (of :data:`_OK` for ``None``;
        for a str, an int too, its text)."""
        if want is str:
            self._test(f"(type({src}) is str or type({src}) is int)")
            return f"({src} if type({src}) is str else to_str({src}))"
        self._test(f"type({src}) in _OK" if want is None
                   else f"type({src}) is {want.__name__}")
        return src

    def _held(self, expr: str, want: type | None) -> str:
        """A temporary holding ``expr``, guarded as :meth:`_guard` does
        (not at all where ``want`` is ``object``)."""
        held = self.temp()
        if want is object or want is str:
            self._test(f"(({held} := {expr}) is {held})")
            return held if want is object else self._guard(held, str)
        self._guard(f"({held} := {expr})", want)
        return held

    def _copy(self, node: Node, src: str, kind: type | None) -> str:
        """``src`` leaving a variable or cell: an array is copied."""
        if type(node) not in (Var, Index) or kind not in (None, PhpArray):
            return src
        if kind is PhpArray:
            return f"{src}.copy()"
        return f"({src}.copy() if type({src}) is PhpArray else {src})"

    @staticmethod
    def _truth(src: str, kind: type | None) -> str:
        """The truth of an in-line value (never a multivalue)."""
        if kind is bool:
            return src
        return f"({src} != 0)" if kind is int else f"truthy({src})"

    def _value(self, node: Node, want: type | None,
               depth: int = 0) -> _Value | None:
        """``node`` in line — of type ``want`` where it is not ``None`` —
        its guards and calls on :attr:`chain`; ``None`` where it does not
        qualify."""
        kind = type(node)
        if kind in (Lit, BinOp, UnOp):
            const = self.comp.const(node)
            if const is not None:
                if want is not None and type(const[0]) is not want:
                    return None
                return self.bind(const[0]), type(const[0]), const[1]
        if depth > _DEPTH:
            return None
        if kind is Var:
            return self._guard(self.local(node.name), want), want, 1
        if kind is BinOp:
            if node.op in ("&&", "||"):
                return self._ternary(node, want, depth)
            return self._binop(node, want, depth)
        if kind is UnOp:
            return self._unary(node, want, depth)
        if kind is Index:
            base = self._value(node.base, PhpArray, depth + 1)
            const = self.comp.const(node.index)
            if base is None:
                return None
            if const is not None and type(const[0]) in (int, str):
                key = self.bind(PhpArray._norm_key(const[0]))
                return (self._held(f"{base[0]}.data.get({key})", want), want,
                        1 + base[2] + const[1])
            index = self._value(node.index, None, depth + 1)
            if index is None:
                return None
            return (self._held(f"{base[0]}.get({index[0]})", want), want,
                    1 + base[2] + index[2])
        if kind is Call:
            return self._call(node, want, depth)
        if kind is ArrayLit and want in (None, PhpArray):
            return self._literal(node, depth)
        if kind is Ternary:
            return self._ternary(node, want, depth)
        return None

    def _binop(self, node: BinOp, want: type | None,
               depth: int) -> _Value | None:
        operands, plain = EXACT_OPS.get(node.op, (None, None))
        infix = _INFIX.get(plain)
        if infix is None or node.op == "%" and not (  # by an int constant
                type(node.right) is Lit and type(node.right.value) is int
                and node.right.value != 0):
            return None
        result = bool if infix in _TESTS else operands
        if want not in (None, result) and (want, result) != (str, int):
            return None
        left = self._value(node.left, operands, depth + 1)
        right = self._value(node.right, operands, depth + 1) if left else None
        if right is None:
            return None
        src = f"({left[0]} {infix} {right[0]})"
        if want is str and result is int:
            src, result = f"to_str{src}", str
        return src, result, 1 + left[2] + right[2]

    def _unary(self, node: UnOp, want: type | None,
               depth: int) -> _Value | None:
        """``!`` of any value, ``-`` of an int."""
        if node.op == "!" and want in (None, bool):
            got = self._value(node.operand, None, depth + 1)
            return got and (f"(not {self._truth(got[0], got[1])})", bool,
                            1 + got[2])
        if node.op == "-" and want in (None, int):
            got = self._value(node.operand, int, depth + 1)
            return got and (f"(-{got[0]})", int, 1 + got[2])
        return None

    def _arm(self, node: Node, want: type | None,
             depth: int) -> _Value | None:
        """``node`` in line where it may not run: it may add type tests
        to the guards, but no call, fold or step term."""
        chain, folds, extra = len(self.chain), len(self.folds), \
            len(self.extra)
        got = self._value(node, want, depth + 1)
        if got is None or len(self.folds) > folds \
                or len(self.extra) > extra \
                or any(":=" in term for term in self.chain[chain:]):
            return None
        return got

    def _call(self, node: Call, want: type | None,
              depth: int) -> _Value | None:
        builtin = self.comp.builtin(node)
        if builtin is None:
            return None
        operands, form, result = EXACT_CALLS.get(node.name, ((), None, None))
        if len(operands) != len(node.args):
            operands, form = (object,) * len(node.args), None
        elif want not in (None, result):
            return None
        args, plain, tests, steps = [], [], [], 1
        for arg, operand in zip(node.args, operands):
            got = self._value(arg, None, depth + 1)
            if got is None:
                return None
            src, kind, arg_steps = got
            if kind is None:
                self._test(f"(type({src}) is not PhpArray "
                           "or not state.multi_cells)")
            elif kind is PhpArray:
                self._test("not state.multi_cells")
            if form is not None and not src.isidentifier():
                src = self._held(src, object)  # form, test and call read it
            if kind is None and operand is not object:
                tests.append(f"type({src}) is {operand.__name__}")
            elif operand not in (kind, object):
                form = None  # never of the operand's type
            plain.append(src)
            args.append(self._copy(arg, src, kind))
            steps += arg_steps
        call = f"{self.bind(builtin)}({', '.join(args)})"
        if form is None:
            return self._held(call, want), want, steps
        form = f"({form.format(*plain)})"
        if not tests:  # it cannot raise: no need to hold it in order
            return form, result, steps
        return (self._held(f"({form} if {' and '.join(tests)} else {call})",
                           object), result, steps)

    def _literal(self, node: ArrayLit, depth: int) -> _Value | None:
        built = self.comp.literal(node)
        if built is not None:  # a handle on the array built once
            return f"{self.bind(built[0])}.copy()", PhpArray, built[1]
        cells = self.comp.cells(node)
        if cells is None:
            return None
        norms, top, steps = cells
        items = []
        for norm, (_, value) in zip(norms, node.items):
            got = self._value(value, None, depth + 1)
            if got is None:
                return None
            items.append(f"{self.bind(norm)}: "
                         f"{self._copy(value, got[0], got[1])}")
            steps += got[2]
        return (f"PhpArray.from_data({{{', '.join(items)}}}, "
                f"{self.bind(top)})", PhpArray, steps)

    def _ternary(self, node: Node, want: type | None,
                 depth: int) -> _Value | None:
        """A ternary, or ``&&`` / ``||`` — a ternary whose one arm is the
        truth of the right operand — in line where what may not run
        needs no more than type tests."""
        logic = type(node) is BinOp
        cond = self._value(node.left if logic else node.cond, None,
                           depth + 1)
        if cond is None or logic and want not in (None, bool):
            return None
        taken, negate = self.temp(), logic and node.op == "||"
        self._test(f"(({taken} := {'not ' if negate else ''}"
                   f"{self._truth(cond[0], cond[1])}) is {taken})")
        arms = [self._arm(arm, None if logic else want, depth)
                for arm in ([node.right] if logic else [node.then,
                                                        node.other])]
        if None in arms:
            return None
        kind = "sc" if logic else "tern"  # nid * 2 + which way it goes
        self.folds.append((taken, branch_mix(kind, node.nid * 2 + 1),
                           branch_mix(kind, node.nid * 2)))
        if logic:
            (right,) = arms
            arms = [(self._truth(*right[:2]), bool, right[2]),
                    (str(negate), bool, 0)]
        then, other = arms
        if then[2] != other[2]:
            self.extra.append(f"({then[2] - other[2]} if {taken} else 0)")
        return (f"({then[0]} if {taken} else {other[0]})",
                then[1] if then[1] is other[1] else None,
                1 + cond[2] + other[2])

    # -- statements --------------------------------------------------------

    def block(self, pad: str, stmts: list[Node]) -> list[str]:
        return [line for stmt in stmts
                for line in self.statement(pad, stmt)] or [pad + "pass"]

    def statement(self, pad: str, stmt: Node) -> list[str]:
        kind = type(stmt)
        if kind in (If, While, Foreach) and (
                len(pad) > 4 * _INDENT
                or kind is not If and self.loops >= _LOOPS):
            return self.drained(pad, stmt)
        return getattr(self, _EMIT[kind])(pad, stmt)

    def drained(self, pad: str, stmt: Node) -> list[str]:
        """``stmt`` as a generated function of its own; where it holds a
        ``return``, what that returns is returned on."""
        reads, assigns, indexed, flows = _walk(self.comp, stmt)
        touched = reads | assigns | indexed
        ((pure, fn),) = region(self.comp, [stmt], self.top)
        held = self.temp()
        lines = self.call(pad, f"{held} = {self.run(pure, fn)}", touched,
                          touched, flows)
        if any(type(item) is Return for item in nodes(stmt)):
            lines.append(f"{pad}if {held} is not _NEXT: return {held}")
        return lines

    @staticmethod
    def _into(var: str) -> Callable:
        """``use`` holding the value in temporary ``var``."""
        return lambda pad, src, _: [f"{pad}{var} = {src}"]

    def _store(self, var: str) -> Callable:
        """``use`` storing the value in variable ``var``."""
        local = self.local(var)

        def store(pad: str, src: str, _kind: object) -> list[str]:
            self.dirty.add(local)
            return [f"{pad}{local} = {src}"]

        return store

    def _assign(self, pad: str, stmt) -> list[str]:
        store = self._store(stmt.name)
        if not stmt.op:
            return self.operand(pad, stmt.expr, store, copy=True, book=1)
        apply, local = self.bind(compound(stmt.op)), self.local(stmt.name)
        # ``$x op= e`` in line is ``$x = $x op e`` but for the steps of
        # the operator and the read of ``$x``: the statement books one.
        inline = [(BinOp(stmt.op, Var(stmt.name), stmt.expr), store, -1)] \
            if compound(stmt.op) is binop(stmt.op) else None
        return self.operand(pad, stmt.expr, lambda p, src, kind: store(
            p, f"_binop({apply}, {local}, {src}, state)", kind), copy=True,
            book=1, inline=inline)

    def _exprstmt(self, pad: str, stmt) -> list[str]:
        return self.operand(pad, stmt.expr, lambda *_: [], book=1)

    def _echo(self, pad: str, stmt) -> list[str]:
        self.echo = True

        def out(pad: str, src: str, kind: object) -> list[str]:
            if kind is str:
                return [f"{pad}out({src})"]
            if kind is object:
                return [f"{pad}out(_text({src}, state))"]
            return [f"{pad}out(to_str({src}))"]

        lines = [] if stmt.exprs else self.book(pad, 1)
        for index, expr in enumerate(stmt.exprs):
            lines += self.operand(pad, expr, out, book=int(index == 0))
        return lines

    def _condition(self, pad: str, node: Node, where: str, held: str,
                   book: int = 0) -> list[str]:
        """Lines setting ``held`` to the truth of condition ``node``."""
        def truth(pad: str, src: str, kind: object) -> list[str]:
            if kind is object:
                return self._taken(pad, src, where, held)
            return [f"{pad}{held} = {self._truth(src, kind)}"]

        return self.operand(pad, node, truth, book=book)

    def _if(self, pad: str, stmt, index: int = 0) -> list[str]:
        """Branch ``index`` of an ``if`` on, each ``elseif`` in the
        ``else`` of the one before (a method: a closure that calls itself
        is a reference cycle, which keeps the compiler alive)."""
        if index == len(stmt.branches):  # the digest target nid * 64
            return [*self.fold(pad, self.bind(branch_mix("if", stmt.nid * 64))),
                    *self.block(pad, stmt.else_body or [])]
        cond, body = stmt.branches[index]
        mix = self.bind(branch_mix("if", stmt.nid * 64 + index + 1))
        held = self.temp()
        return [*self._condition(pad, cond, f"if#{stmt.nid}", held,
                                 int(index == 0)),
                *self.branch(pad, held,
                             lambda p: self.fold(p, mix) + self.block(p, body),
                             lambda p: self._if(p, stmt, index + 1))]

    def _loop(self, pad: str, stmt, head: Callable, bind: list[str],
              binds: tuple[str, ...] = (), trips: str | None = None
              ) -> list[str]:
        """A ``while`` / ``foreach``: ``head()`` its first line(s),
        ``bind`` what a trip starts with after its fold, ``binds`` the
        locals that binds; ``loop`` folds per trip and ``loopx`` after
        the last, and ``break`` / ``continue`` from a call are signals;
        a fold-free loop (``trips`` its count) has neither."""
        # What it assigns: an index assignment writes its variable in
        # place, or through a call that reloads it.
        reads, _, indexed, _ = _walk(self.comp, stmt)
        assigned = _walk(self.comp, stmt.body)[1]
        lines = self.sync(pad, (reads | indexed | self.shared) - assigned,
                          False)
        self.dirty |= {self.local(var) for var in sorted(assigned)}
        self.dirty |= {"steps", "flow", *binds}
        dirty, inner = set(self.dirty), pad + "    "
        leave = [self.bind(branch_mix("loopx", stmt.nid))]
        self.loops += 1
        if trips is not None:
            lines += [*head(), *bind, *self.block(inner, stmt.body)]
            leave.append(f"({self.bind(branch_mix('trips', 0))} + {trips})")
        else:
            lines += [*head(), *self.fold(inner, self.bind(branch_mix(
                "loop", stmt.nid))), *bind, f"{inner}try:",
                *self.block(inner + "    ", stmt.body),
                f"{inner}except _BreakSignal:", *self.reload(inner + "    "),
                f"{inner}    break", f"{inner}except _ContinueSignal:",
                *self.reload(inner + "    "), f"{inner}    continue"]
        self.loops -= 1
        self.dirty |= dirty
        return lines + self.fold(pad, *leave)

    def _while(self, pad: str, stmt) -> list[str]:
        held = self.temp()
        count = self.temp() if fold_free(stmt, self.comp.funcs) else None
        start, tally = ([f"{pad}{count} = 0"],
                        [f"{pad}    if flow is not None:",
                         f"{pad}        {count} += 1"]) if count else ([], [])
        return [*self.book(pad, 1), *start, *self._loop(pad, stmt, lambda: [
            f"{pad}while True:",
            *self._condition(pad + "    ", stmt.cond, f"while#{stmt.nid}",
                             held),
            f"{pad}    if not {held}:", f"{pad}        break", *tally],
            [], trips=count)]

    def _foreach(self, pad: str, stmt) -> list[str]:
        items = self.temp()
        lines = self.operand(pad, stmt.subject, self._into(items), book=1)
        key = self.local(stmt.key_var) if stmt.key_var else "_"
        value = self.local(stmt.val_var)
        where = self.bind(f"foreach#{stmt.nid}")
        inner = pad + "    "
        bind = [f"{inner}if type({value}) is PhpArray:",
                f"{inner}    {value} = {value}.copy()",
                f"{inner}elif type({value}) is MultiValue:",
                f"{inner}    {value} = _copy_value({value})"]
        return lines + self._loop(pad, stmt, lambda: [
            f"{pad}{items} = _foreach_items({items}, state, {where})",
            f"{pad}for {key}, {value} in {items}:"], bind, (key, value),
            f"len({items})" if fold_free(stmt, self.comp.funcs) else None)

    def _indexassign(self, pad: str, stmt) -> list[str]:
        """``$a[] = e`` / ``$a[k] = e``: the variable's
        array (the compiler's ``root`` where it is not one), the value,
        the key, into it; a multivalue among them, or an expanded root,
        goes to ``finish``.  Any other walks its path (:meth:`_index_path`)."""
        parts = self.comp._index_parts(stmt)
        if len(stmt.path) != 1 or stmt.op:
            return self._index_path(pad, stmt, *map(self.bind, parts))
        container, value, key = self.temp(), self.temp(), self.temp()
        last, name = stmt.path[0], {stmt.name}
        root, finish = self.bind(parts[0]), self.bind(parts[2])
        lines = [f"{pad}{container} = {self.local(stmt.name)}", *self.branch(
            pad, f"type({container}) is not PhpArray",
            lambda p: self.call(p, f"{container} = {root}(env, state)",
                                name, name, flows=False)),
            *self.operand(pad, stmt.expr, self._into(value), copy=True,
                          book=1)]
        test = (f"type({container}) is PhpArray "
                f"and type({value}) is not MultiValue")
        const = None if last is None else self.comp.const(last)
        if last is None:
            key, store = self.bind(_APPEND), f"{container}.append({value})"
        elif const is not None and type(const[0]) in (int, str):
            key = self.bind(PhpArray._norm_key(const[0]))  # normalised once
            lines += self.book(pad, const[1])
            store = f"{container}.put({key}, {value})"
        else:
            lines += self.operand(pad, last, self._into(key))
            test += f" and type({key}) is not MultiValue"
            store = f"{container}.set({key}, {value})"
        return [*lines, *self.branch(
            pad, test, lambda p: [p + store],
            lambda p: self.call(p, f"{finish}(env, state, {container}, [], "
                                   f"[], {key}, {value})",
                                name, name, flows=False))]

    def _index_path(self, pad: str, stmt, root: str, step: str,
                    finish: str) -> list[str]:
        """An index assignment walked as the oracle walks it: ``root``,
        key by key ``step`` and ``_descend`` into ``container`` (the one
        array, or once the root or a key is a multivalue a list of each
        slot's own), then the value, the last key and ``finish``."""
        name = {stmt.name}
        container, walked, held, value = (self.temp() for _ in range(4))
        lines = [*self.book(pad, 1),
                 *self.call(pad, f"{container} = {root}(env, state)", name,
                            name, flows=False),
                 f"{pad}{walked}, {held} = [], []"]
        for path in stmt.path[:-1]:
            if path is None:  # ``[]`` before the last index: an error
                lines += self._fail(pad, "'[]' only allowed as the last index")
                continue
            key = self.temp()
            lines += [*self.operand(pad, path, self._into(key)), *self.call(
                pad, f"{container} = _descend({step}(env, state, {container}, "
                     f"{walked}, {held}, {key}), {key}, state, {held})",
                name, name, flows=False), f"{pad}{walked}.append({key})"]
        lines += self.operand(pad, stmt.expr, self._into(value), copy=True)
        key = self.bind(_APPEND) if stmt.path[-1] is None else self.temp()
        if stmt.path[-1] is not None:
            lines += self.operand(pad, stmt.path[-1], self._into(key))
        return [*lines, *self.call(
            pad, f"{finish}(env, state, {container}, {walked}, {held}, "
                 f"{key}, {value})", name, name, flows=False),
            f"{pad}_release({held})"]

    def _return(self, pad: str, stmt) -> list[str]:
        def leave(pad: str, src: str, _kind: object) -> list[str]:
            # The frame is left behind: only ``steps``, ``flow`` and the
            # shared globals count.
            return [*self.sync(pad, self.shared), f"{pad}return {src}"]

        if stmt.expr is None:
            return [*self.book(pad, 1), *leave(pad, "None", None)]
        return self.operand(pad, stmt.expr, leave, copy=True, book=1)

    def _signal(self, pad: str, stmt) -> list[str]:
        """``break`` / ``continue``: in a loop of this region a Python
        one, else the signal the oracle raises."""
        word = type(stmt).__name__
        if self.loops:
            return [*self.book(pad, 1), pad + word.lower()]
        return [*self.book(pad, 1), *self.sync(pad),
                f"{pad}raise _{word}Signal()"]

    def _globaldecl(self, pad: str, stmt) -> list[str]:
        """At top level, where the frame is the globals, a no-op but its
        step; in a function the names resolve to the globals from here
        on (the frame is an ``_Env``), so their locals are reloaded."""
        lines = self.book(pad, 1)
        if self.top:
            return lines
        locals_ = [self.local(var) for var in stmt.names]
        self.dirty -= set(locals_)
        return [*lines,
                f"{pad}env.global_names.update({self.bind(tuple(stmt.names))})",
                *(f"{pad}{local} = get({self.name(var)})"
                  for var, local in zip(stmt.names, locals_))]


#: The method that makes each kind of statement.
_EMIT = {Assign: "_assign", ExprStmt: "_exprstmt", Echo: "_echo", If: "_if",
         While: "_while", Foreach: "_foreach", IndexAssign: "_indexassign",
         Return: "_return", Break: "_signal", Continue: "_signal",
         GlobalDecl: "_globaldecl"}

#: The method that makes the general form of each kind of expression.
_GENERAL = {BinOp: "_general_binop", UnOp: "_general_unop",
            Ternary: "_general_ternary", Index: "_general_index",
            ArrayLit: "_general_arraylit", Call: "_general_call"}


def region(comp, stmts: list[Node], top: bool,
           whole: bool = False) -> list[tuple[bool, Callable]]:
    """``stmts`` as generated functions — parts, run in order while each
    returns :data:`_NEXT` — each with whether it is plain (else it is a
    generator function); ``comp`` is the compiler of their scope, ``top``
    whether the frame is the globals, ``whole`` whether they are a
    function's body: one part, after which only its shared globals are
    read (its frame an ``_Env`` over its caller's dict where it says
    ``global``)."""
    parts, made, body = [], _Region(comp, top), []
    for stmt in stmts:  # parts of at most about _SIZE characters
        if not whole and sum(map(len, body)) > _SIZE:
            parts.append(_assembled(made, [*body, *made.sync(_PAD),
                                           f"{_PAD}return _NEXT"]))
            made, body = _Region(comp, top), []
        body += made.statement(_PAD, stmt)
    return [*parts, _assembled(made, [
        *(body or [_PAD + "pass"]),
        *made.sync(_PAD, made.shared if whole else None),
        *([] if whole else [f"{_PAD}return _NEXT"])],
        whole and bool(made.shared))]


#: The indent of a generated function's body.
_PAD = " " * 8


def _assembled(made: _Region, body: list[str],
               scope: bool = False) -> tuple[bool, Callable]:
    """Whether it is plain, and the generated function of ``made`` whose
    statements are ``body``: its frame made an ``_Env`` where ``scope``,
    its locals loaded first."""
    head = [f"{_PAD}steps = state.steps", f"{_PAD}flow = state.flow"]
    if scope:
        head.append(f"{_PAD}env = _scope(state, env)")
    if made.echo:
        head.append(f"{_PAD}out = state.output.append")
    loads = {var: f"{local} = get({made.name(var)})"
             for var, local in made.locals.items()}
    if loads:
        head += [f"{_PAD}get = env.get",
                 *(_PAD + load for load in loads.values())]
    lines = []
    for line in head + body:
        if line.endswith(_RELOAD):
            lines += [line[:-1] + load for var, load in loads.items()
                      if var in made.shared]
        else:
            lines.append(line)
    params = ", ".join(f"b{index}" for index in range(len(made.args)))
    source = (f"def make({params}):\n    def run(env, state):\n"
              + "\n".join(lines) + "\n    return run\n")
    return not made.yields, _factory(source)(*made.args)
