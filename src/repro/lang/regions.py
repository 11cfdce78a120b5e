"""Generated source for every statement of the compiled engine.

A block — a function body, the script's body — is one generated Python
function (:func:`region`; cut where it grows past :data:`_SIZE`, the
parts run in order), and a pure operand of an expression closure that
may yield is one too (:func:`expression`).  A block that may yield an
intent is a generator function: an operand that may yield is
``held = yield from <its expression closure>(env, state)``, a call out
of the region like any other.  An ``if`` is a Python ``if`` that folds
its arm's digest constant, a loop a Python loop that folds ``loop`` per
trip after binding the key and a copy-on-write handle of the value, and
``loopx`` after the last (a fold-free one ``loopx`` and its trip count
only); ``break`` / ``continue`` in it are Python's.  An index assignment
walks its path with the compiler's ``root`` / ``step`` / ``finish``
(§4.3's container rules).  A loop or branch nested past :data:`_LOOPS`
/ :data:`_INDENT` is drained into a generated function of its own.

**Python locals.**  In a dict-frame scope a region keeps the variables it
touches, ``steps`` and the flow digest in Python locals: written back
before a call out of the region — an expression closure, a drained
statement, a ``yield from`` — (what the call may read; everything at top
level, and before a call whose ``break`` / ``continue`` no loop of the
region would catch) and at exit, and reloaded after a call (``steps``,
``flow``, what a drained statement touched — also when it raises a
signal — and at top level the variables a function declares ``global``:
no call can write a function's own frame).  So a call, an intent's
driver, and whoever catches what a call raises, find the frame,
``steps`` and the digest as the oracle would leave them.  A variable
missing from the frame loads as ``_ABSENT``, which no guard passes and
nothing writes back.

**In line.**  An expression built from constants, frame variables, the
operators whose :data:`~repro.lang.values.EXACT_OPS` entry has a Python
infix form (:data:`_INFIX`), ``$v[<key>]``, pure built-in calls,
constant-key array literals and ternaries whose arms need no guard runs
as Python behind type guards, chained with its calls in evaluation
order; when they hold, one add books the closures' steps.  When one
fails, or the expression does not qualify (and always in a ``use_env``
scope), the statement calls the expression's closure, which does the
coercions, the per-class work and the errors.  On exact operands the
plain operator is the table entry, and a call of a built-in with a
:data:`~repro.lang.builtins.EXACT_CALLS` entry its Python form (an
operand of unknown type tested per value, the built-in called where the
test fails); nothing in line raises where the closures would not, so
``steps``, ``multi_steps``, the flow digest, bodies and errors stay the
closures'.

No program text reaches the generated source: names, constants and
closures are arguments of a factory whose parameters the generator
names, so one source (one ``compile``) serves every region of a shape.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from hashlib import blake2b

from repro.common.digest import _FNV_PRIME, _MASK, branch_mix
from repro.lang.analysis import branches, fold_free, iter_children
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
from repro.lang.builtins import EXACT_CALLS
from repro.lang.interp import _BreakSignal, _ContinueSignal, _ReturnSignal
from repro.lang.simd import (
    _APPEND,
    _binop,
    _copy_value,
    _descend,
    _foreach_items,
    _multi_text,
    _no_key,
    _release,
    _truth,
)
from repro.lang.values import (
    EXACT_OPS,
    PhpArray,
    binop,
    compound,
    to_str,
    truthy,
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
#: its ``try`` take two), and how far it indents a branch (100 levels).
_LOOPS = 6
_INDENT = 40

#: The local of a variable not in the frame: never written back.
_ABSENT = object()

#: The values an in-line operand may hold: not a multivalue, not absent.
_OK = frozenset({str, int, float, bool, type(None), PhpArray})

#: A line that stands for reloading the shared variables after a call
#: (which of them have locals is known once the region is made).
_RELOAD = "\0"

#: The module a generated function runs in: no builtins beyond these.
_HELPERS: dict[str, object] = {
    "__builtins__": {}, "type": type, "int": int, "str": str, "len": len,
    "PhpArray": PhpArray, "MultiValue": MultiValue, "_OK": _OK,
    "_ABSENT": _ABSENT, "_PRIME": _FNV_PRIME, "_MASK": _MASK,
    "_truth": _truth, "truthy": truthy, "to_str": to_str, "_binop": _binop,
    "_copy_value": _copy_value, "_foreach_items": _foreach_items,
    "_multi_text": _multi_text, "_descend": _descend, "_release": _release,
    "_no_key": _no_key, "_BreakSignal": _BreakSignal,
    "_ContinueSignal": _ContinueSignal, "_ReturnSignal": _ReturnSignal,
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
    them): the variables it reads, those it assigns or a foreach binds,
    those it index-assigns, and whether it may fold the flow digest or
    raise a signal — it holds a branch, a loop, ``break`` or
    ``continue``, or calls a user function.  Found bottom-up, once per
    node and compiler."""
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
#: value of :data:`_OK`) and the steps its closures would book.
_Value = tuple[str, type | None, int]


class _Region:
    """The source of one region, the values it binds, and what its
    locals hold at the line being made."""

    def __init__(self, comp, top: bool):
        self.comp = comp  # the compiler: expression closures and helpers
        self.fast = not comp.use_env  # a dict frame: variables in locals
        self.top = top  # the frame is the globals
        #: The variables of the frame a call may write: at top level, the
        #: ones a function declares ``global``.
        self.shared = comp.shared if top else frozenset()
        self.args: list[object] = []
        self.names: dict[str, str] = {}
        self.locals: dict[str, str] = {}
        #: The locals (and ``steps``, ``flow``) written since the frame
        #: and ``state`` last saw them.
        self.dirty: set[str] = set()
        self.temps = 0
        self.loops = 0  # Python loops around the line being made
        self.echo = False
        self.lined = False  # whether an expression runs in line
        self.yields = False  # whether a call may yield an intent
        #: The guards, digest folds and step terms of the in-line
        #: expression being made.
        self.chain: list[str] = []
        self.folds: list[tuple[str, int, int]] = []
        self.extra: list[str] = []

    def bind(self, value: object) -> str:
        self.args.append(value)
        return f"b{len(self.args) - 1}"

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

    def fold(self, pad: str, *mixes: str) -> list[str]:
        self.dirty.add("flow")
        return [f"{pad}if flow is not None:",
                *(f"{pad}    flow = ((flow ^ {mix}) * _PRIME) & _MASK"
                  for mix in mixes)]

    def sync(self, pad: str, names: set[str] | None = None,
             flows: bool = True) -> list[str]:
        """Lines writing back ``steps``, ``flow`` where ``flows``, and
        what was written of the variables ``names`` (every one where
        ``None``)."""
        slots = {"steps", "flow"} if flows else {"steps"}
        lines = [f"{pad}state.{slot} = {slot}" for slot in ("steps", "flow")
                 if slot in self.dirty & slots]
        self.dirty -= slots
        for var, local in self.locals.items():
            if local in self.dirty and (names is None or var in names):
                lines.append(f"{pad}if {local} is not _ABSENT: "
                             f"env[{self.name(var)}] = {local}")
                self.dirty.discard(local)
        return lines

    def reload(self, pad: str, names: set[str] = frozenset(),
               flows: bool = True) -> list[str]:
        """Lines reloading ``steps``, ``flow`` where ``flows``, the
        variables ``names`` and the shared ones after a call."""
        lines = [f"{pad}steps = state.steps",
                 *([f"{pad}flow = state.flow"] if flows else [])]
        if not self.fast:
            return lines
        lines += [f"{pad}{self.local(var)} = get({self.name(var)}, _ABSENT)"
                  for var in sorted(names)]
        return lines + [pad + _RELOAD] if self.shared else lines

    def run(self, pure: bool, fn: Callable) -> str:
        """The call ``fn(env, state)``: ``yield from`` it where it may
        yield an intent (the region is then a generator function)."""
        self.yields = self.yields or not pure
        return f"{'' if pure else 'yield from '}{self.bind(fn)}(env, state)"

    def call(self, pad: str, line: str, reads: set[str],
             writes: set[str] = frozenset(), flows: bool = True
             ) -> list[str]:
        """``line``, a call out of the region that may read the
        variables ``reads``, write ``writes`` and, where ``flows``, fold
        the flow digest or raise a signal.  A signal leaves the region
        where no loop of it encloses the call, so everything is written
        back first; one to a loop of the region passes the reload."""
        lines = self.sync(pad, None if self.top or flows and not self.loops
                          else reads, flows)
        if flows and self.loops and writes:
            return [*lines, f"{pad}try:", f"{pad}    {line}", f"{pad}finally:",
                    *self.reload(pad + "    ", writes, flows)]
        return [*lines, pad + line, *self.reload(pad, writes, flows)]

    def reach(self, node: Node) -> tuple[frozenset[str], bool]:
        """The variables ``node`` reads, and whether it may fold the flow
        digest or raise a signal (:func:`_walk`)."""
        reads, _, _, flows = _walk(self.comp, node)
        return reads, flows

    def branch(self, pad: str, cond: str, yes: Callable,
               no: Callable | None = None) -> list[str]:
        """``if cond: yes else: no`` (each a function of its pad)."""
        before = set(self.dirty)
        then = yes(pad + "    ")
        self.dirty, after = before, self.dirty
        other = [f"{pad}else:", *no(pad + "    ")] if no else []
        self.dirty |= after
        return [f"{pad}if {cond}:", *then, *other]

    # -- expressions -------------------------------------------------------

    def operand(self, pad: str, node: Node, use: Callable, copy: bool = False,
                book: int = 0, inline: tuple | None = None) -> list[str]:
        """Lines evaluating ``node`` — with copy semantics where ``copy``
        — and then ``use(pad, src, kind)``: in line where it qualifies
        (``kind`` the value's type, ``None`` for any value but a
        multivalue), else, and where a guard fails, by a call to its
        closure (``kind`` ``object``: any value); ``book`` steps more.
        ``inline`` is ``(node, use, book)`` to run in line first."""
        got = None
        for fast_node, fast_use, fast_book in [*(inline or []),
                                               (node, use, book)]:
            self.chain, self.folds, self.extra = [], [], []
            got = self._value(fast_node, None)
            if got is not None:
                break
        if got is not None and copy:
            got = (self._copy(fast_node, got[0], got[1]), *got[1:])
        self.lined = self.lined or got is not None
        chain, folds, extra = self.chain, self.folds, self.extra
        pure, fn, _ = (self.comp._compile_expr_copy if copy
                       else self.comp._compile_expr)(node)
        held = self.temp()
        reads, flows = self.reach(node)

        def slow(pad: str) -> list[str]:
            return [*self.book(pad, book),
                    *self.call(pad, f"{held} = {self.run(pure, fn)}", reads,
                               flows=flows),
                    *use(pad, held, object)]

        if got is None:
            return slow(pad)
        src, kind, steps = got

        def fast(pad: str) -> list[str]:
            lines = self.book(pad, " + ".join([str(steps + fast_book),
                                               *extra]))
            for cond, then_mix, other_mix in folds:
                lines += self.fold(pad, f"({self.bind(then_mix)} if {cond} "
                                        f"else {self.bind(other_mix)})")
            return lines + fast_use(pad, src, kind)

        if not chain:
            return fast(pad)
        return self.branch(pad, " and ".join(chain), fast, slow)

    def _test(self, term: str) -> None:
        if term not in self.chain:
            self.chain.append(term)

    def _guard(self, src: str, want: type | None) -> str:
        """``src``, guarded to be of type ``want`` (any of :data:`_OK`
        where ``None``)."""
        self._test(f"type({src}) in _OK" if want is None
                   else f"type({src}) is {want.__name__}")
        return src

    def _held(self, expr: str, want: type | None) -> str:
        """A temporary holding ``expr``, guarded as :meth:`_guard` does
        (not at all where ``want`` is ``object``)."""
        held = self.temp()
        if want is object:
            self._test(f"(({held} := {expr}) is {held})")
        else:
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
            const = self.comp._compile_expr(node)[2]
            if const is not None:
                if want is not None and type(const[0]) is not want:
                    return None
                return self.bind(const[0]), type(const[0]), const[1]
        if not self.fast or depth > _DEPTH:
            return None
        if kind is Var:
            return self._guard(self.local(node.name), want), want, 1
        if kind is BinOp:
            return self._binop(node, want, depth)
        if kind is Index:
            base = self._value(node.base, PhpArray, depth + 1)
            const = self.comp._compile_expr(node.index)[2]
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

    def _call(self, node: Call, want: type | None,
              depth: int) -> _Value | None:
        builtin = self.comp._builtin(node)
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
        cells = self.comp._literal_cells(node)
        if cells is None:
            return None
        built = self.comp.literals.get(self.comp._compile_expr(node)[1])
        if built is not None:  # a handle on the array built once
            return f"{self.bind(built[0])}.copy()", PhpArray, built[1]
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

    def _ternary(self, node: Ternary, want: type | None,
                 depth: int) -> _Value | None:
        cond = self._value(node.cond, None, depth + 1)
        if cond is None:
            return None
        taken = self.temp()
        self._test(f"(({taken} := {self._truth(cond[0], cond[1])}) "
                   f"is {taken})")
        guards = len(self.chain)
        then = self._value(node.then, want, depth + 1)
        other = self._value(node.other, want, depth + 1) if then else None
        if other is None or len(self.chain) > guards:
            return None  # an arm that needs a guard
        self.folds.append((taken, branch_mix("tern", node.nid * 2 + 1),
                           branch_mix("tern", node.nid * 2)))
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
        """``stmt`` as a generated function of its own."""
        reads, assigns, indexed, flows = _walk(self.comp, stmt)
        touched = reads | assigns | indexed if self.fast else set()
        return self.call(pad, self.run(*region(self.comp, [stmt], self.top)),
                         touched, touched, flows)

    @staticmethod
    def _into(var: str) -> Callable:
        """``use`` holding the value in temporary ``var``."""
        return lambda pad, src, _: [f"{pad}{var} = {src}"]

    def _store(self, var: str) -> Callable:
        """``use`` storing the value in variable ``var``."""
        if not self.fast:
            return lambda pad, src, _: [
                f"{pad}env.store({self.name(var)}, {src})"]
        local = self.local(var)

        def store(pad: str, src: str, _kind: object) -> list[str]:
            self.dirty.add(local)
            return [f"{pad}{local} = {src}"]

        return store

    def _assign(self, pad: str, stmt) -> list[str]:
        if not stmt.op:
            return self.operand(pad, stmt.expr, self._store(stmt.name),
                                copy=True, book=1)
        apply = self.bind(compound(stmt.op))
        if not self.fast:
            var = self.name(stmt.name)
            return self.operand(pad, stmt.expr, lambda p, src, _: [
                f"{p}env.store({var}, _binop({apply}, env.lookup({var}), "
                f"{src}, state))"], copy=True, book=1)
        local = self.local(stmt.name)

        def combine(pad: str, src: str, _kind: object) -> list[str]:
            self.dirty.add(local)
            return [f"{pad}{local} = _binop({apply}, None if {local} is "
                    f"_ABSENT else {local}, {src}, state)"]

        # ``$x op= e`` in line is ``$x = $x op e`` but for the steps of
        # the operator and the read of ``$x``: the statement books one.
        inline = [(BinOp(stmt.op, Var(stmt.name), stmt.expr),
                   self._store(stmt.name), -1)] \
            if compound(stmt.op) is binop(stmt.op) else None
        return self.operand(pad, stmt.expr, combine, copy=True, book=1,
                            inline=inline)

    def _exprstmt(self, pad: str, stmt) -> list[str]:
        return self.operand(pad, stmt.expr, lambda *_: [], book=1)

    def _echo(self, pad: str, stmt) -> list[str]:
        self.echo = True

        def out(pad: str, src: str, kind: object) -> list[str]:
            if kind is str:
                return [f"{pad}out({src})"]
            if kind is object:
                return [f"{pad}out(to_str({src}) if type({src}) is not "
                        f"MultiValue else _multi_text({src}, state))"]
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
                return [f"{pad}{held} = {src} is True or {src} is not False "
                        f"and _truth({src}, {where})"]
            return [f"{pad}{held} = {self._truth(src, kind)}"]

        return self.operand(pad, node, truth, book=book)

    def _if(self, pad: str, stmt, index: int = 0,
            where: str = "") -> list[str]:
        """Branch ``index`` of an ``if`` on, each ``elseif`` nested in
        the ``else`` of the one before.  (A method, not a closure that
        calls itself: such a closure is a reference cycle, which would
        keep the compiler alive until the collector runs.)"""
        where = where or self.bind(f"if#{stmt.nid}")
        if index == len(stmt.branches):  # the digest target nid * 64
            return [*self.fold(pad, self.bind(branch_mix("if", stmt.nid * 64))),
                    *self.block(pad, stmt.else_body or [])]
        cond, body = stmt.branches[index]
        mix = self.bind(branch_mix("if", stmt.nid * 64 + index + 1))
        held = self.temp()
        return [*self._condition(pad, cond, where, held, int(index == 0)),
                *self.branch(pad, held,
                             lambda p: self.fold(p, mix) + self.block(p, body),
                             lambda p: self._if(p, stmt, index + 1, where))]

    def _loop(self, pad: str, stmt, head: Callable, bind: list[str],
              binds: tuple[str, ...] = (), trips: str | None = None
              ) -> list[str]:
        """A ``while`` / ``foreach`` trip after trip: ``head()`` the
        loop's first line(s), ``bind`` what a trip starts with after its
        fold, ``binds`` the locals that binds; the digest folds ``loop``
        per trip and ``loopx`` after the last, and ``break`` /
        ``continue`` from a call arrive as signals; a fold-free loop
        (``trips`` its count, kept while recording) has neither.  What a
        trip writes may be unwritten at any trip's start."""
        self.dirty |= {"steps", "flow", *binds}
        if self.fast:
            # What it assigns: an index assignment writes its variable
            # in place, or through a call that reloads it.
            self.dirty |= {self.local(var)
                           for var in sorted(_walk(self.comp, stmt.body)[1])}
        dirty, inner = set(self.dirty), pad + "    "
        leave = [self.bind(branch_mix("loopx", stmt.nid))]
        self.loops += 1
        if trips is not None:
            lines = [*head(), *bind, *self.block(inner, stmt.body)]
            leave.append(f"({self.bind(branch_mix('trips', 0))} + {trips})")
        else:
            lines = [*head(), *self.fold(inner, self.bind(branch_mix(
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
            *self._condition(pad + "    ", stmt.cond,
                             self.bind(f"while#{stmt.nid}"), held),
            f"{pad}    if not {held}:", f"{pad}        break", *tally],
            [], trips=count)]

    def _foreach(self, pad: str, stmt) -> list[str]:
        items = self.temp()
        lines = self.operand(pad, stmt.subject, self._into(items), book=1)
        lines += self.sync(pad, set(), flows=False)  # it fails at its step
        if self.fast:
            key = self.local(stmt.key_var) if stmt.key_var else "_"
            value = self.local(stmt.val_var)
        else:
            key, value = self.temp(), self.temp()
        where = self.bind(f"foreach#{stmt.nid}")
        inner = pad + "    "
        bind = [f"{inner}if type({value}) is PhpArray:",
                f"{inner}    {value} = {value}.copy()",
                f"{inner}elif type({value}) is MultiValue:",
                f"{inner}    {value} = _copy_value({value})"]
        if not self.fast:
            bind += [f"{inner}env.store({self.name(var)}, {local})"
                     for var, local in ((stmt.key_var, key),
                                        (stmt.val_var, value)) if var]
        return lines + self._loop(pad, stmt, lambda: [
            f"{pad}{items} = _foreach_items({items}, state, {where})",
            f"{pad}for {key}, {value} in {items}:"], bind,
            (key, value) if self.fast else (),
            f"len({items})" if fold_free(stmt, self.comp.funcs) else None)

    def _indexassign(self, pad: str, stmt) -> list[str]:
        """``$a[] = e`` / ``$a[k] = e`` on a dict frame: the variable's
        array (made or expanded by the compiler's ``root`` where it is
        not one), then the value, then the key, into it; a multivalue
        among them, or an expanded root, goes to its ``finish``.  Any
        other index assignment walks its path (:meth:`_index_path`)."""
        parts = self.comp._index_parts(stmt)
        if not self.fast or len(stmt.path) != 1 or stmt.op:
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
        const = None if last is None else self.comp._compile_expr(last)[2]
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
        then key by key ``step`` and ``_descend`` into ``container`` —
        the one shared array until the root variable holds, or a key
        is, a multivalue; from there on a list of each slot's own array
        — then the value, the last key and ``finish``."""
        name = {stmt.name}
        container, walked, held, value = (self.temp() for _ in range(4))
        lines = [*self.book(pad, 1),
                 *self.call(pad, f"{container} = {root}(env, state)", name,
                            name, flows=False),
                 f"{pad}{walked}, {held} = [], []"]
        for path in stmt.path[:-1]:
            if path is None:  # ``[]`` before the last index: an error
                lines += self.call(pad, "_no_key()", set(), flows=False)
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
            # The frame is left behind: only ``steps`` and ``flow`` count.
            return [*self.sync(pad, set()), f"{pad}raise _ReturnSignal({src})"]

        if stmt.expr is None:
            return [*self.book(pad, 1), *leave(pad, "None", None)]
        return self.operand(pad, stmt.expr, leave, copy=True, book=1)

    def _signal(self, pad: str, stmt) -> list[str]:
        """``break`` / ``continue``: in a loop of this region a Python
        one, else the signal the closures raise."""
        word = type(stmt).__name__
        if self.loops:
            return [*self.book(pad, 1), pad + word.lower()]
        return [*self.book(pad, 1), *self.sync(pad),
                f"{pad}raise _{word}Signal()"]

    def _globaldecl(self, pad: str, stmt) -> list[str]:
        # A dict frame is a scope without ``global`` but for the top
        # level, where the frame is the globals: a no-op but its step.
        lines = self.book(pad, 1)
        if self.fast:
            return lines
        return [*lines,
                f"{pad}env.global_names.update({self.bind(tuple(stmt.names))})"]


#: The method that makes each kind of statement.
_EMIT = {Assign: "_assign", ExprStmt: "_exprstmt", Echo: "_echo", If: "_if",
         While: "_while", Foreach: "_foreach", IndexAssign: "_indexassign",
         Return: "_return", Break: "_signal", Continue: "_signal",
         GlobalDecl: "_globaldecl"}


def region(comp, stmts: list[Node], top: bool,
           whole: bool = False) -> tuple[bool, Callable]:
    """One function running the statements ``stmts`` in order, as the
    oracle would (module docstring), and whether it is a plain function
    (else a generator function, which yields the intents); ``comp`` is
    the compiler of their scope, ``top`` whether the frame is the
    globals, ``whole`` whether they are a function's whole body (whose
    frame nobody reads after them)."""
    parts, made, body = [], _Region(comp, top), []
    for stmt in stmts:  # a function of at most about _SIZE characters
        if sum(map(len, body)) > _SIZE:
            parts.append(_assembled(made, body + made.sync(_PAD)))
            made, body = _Region(comp, top), []
        body += made.statement(_PAD, stmt)
    parts.append(_assembled(made, (body or [_PAD + "pass"])
                            + made.sync(_PAD, set() if whole else None)))
    if len(parts) == 1:
        return parts[0]
    if all(pure for pure, _ in parts):

        def run(env, state):
            for _, part in parts:
                part(env, state)

        return True, run

    def run_gen(env, state):
        for pure, part in parts:
            if pure:
                part(env, state)
            else:
                yield from part(env, state)

    return False, run_gen


def expression(comp, exprs: list[Node], copy: bool,
               many: bool = False) -> Callable | None:
    """One function evaluating the pure expressions ``exprs`` in order,
    with copy semantics where ``copy``, each in line where it qualifies,
    and returning the value — with ``many``, the list of them: what code
    that may yield evaluates a pure operand with.  ``None`` where none
    qualifies: their closures do as well."""
    made = _Region(comp, comp.top)
    held = [made.temp() for _ in exprs]
    body = [line for node, value in zip(exprs, held)
            for line in made.operand(_PAD, node, made._into(value), copy=copy)]
    if not made.lined:
        return None
    result = f"[{', '.join(held)}]" if many else held[0]
    return _assembled(made, [*body, *made.sync(_PAD, set()),
                             f"{_PAD}return {result}"])[1]


#: The indent of a generated function's body.
_PAD = " " * 8


def _assembled(made: _Region, body: list[str]) -> tuple[bool, Callable]:
    """Whether it is plain, and the generated function of ``made`` whose
    statements are ``body``: its locals loaded first."""
    head = [f"{_PAD}steps = state.steps", f"{_PAD}flow = state.flow"]
    if made.echo:
        head.append(f"{_PAD}out = state.output.append")
    loads = {var: f"{local} = get({made.name(var)}, _ABSENT)"
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
