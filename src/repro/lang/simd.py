"""The per-class half of the compiled engine (:mod:`repro.lang.compile`).

What a compiled run over a control-flow group needs at run time: its
mutable state and the helpers its closures call once an operand *is* a
:class:`~repro.multivalue.MultiValue` (§4.3's rules: componentwise
operators with scalar expansion and collapse, built-in splitting,
container expansion, cells that hold multivalues, divergence at
branches).  Each helper is shared by the pure and the generator variant
of the node that calls it, so the work is written once.  The intents a
run yields and the output it returns are the oracle's
(:mod:`repro.lang.interp`): one operand, and one body, per slot.

**Classes, not slots.**  A multivalue holds one value per *class* of
requests that agree (:mod:`repro.multivalue.multivalue` has the
invariants), so a helper does its work once per class: :func:`_align`
brings its operands onto one partition — theirs, when they share it by
identity — and hands back a value per class for each.  The sources make
the classes (:func:`_merged_read`, :func:`_merged_replies`, via
``state.merge``); results keep the partition they were computed on
(``state.regroup``: a univalue if every class agrees, and nothing
coarser is looked for).  Slots are enumerated only where a per-request
answer is the contract: intent operands (:func:`_spread`), the bodies
(:func:`_render`), and the container-expansion paths, which refine to
the identity partition (:func:`_slots`) and run per request.

**What is copied.**  Weblang arrays are values, so what a variable holds
is private to it: a multivalue operand's arrays are private to their
classes and are handed to per-class work as they are.  An array going
to work that may keep or mutate it is copied when that would give two
classes the same one — a univalue array broadcast across the classes, a
class the common partition splits (``private`` in :func:`_align`).
"""

from __future__ import annotations

import marshal
from collections.abc import Callable, Sequence
from functools import partial

from repro.common.errors import (
    DivergenceError,
    MultivalueFallback,
    WeblangError,
)
from repro.lang.values import PhpArray, freeze_value, to_int, to_str, truthy
from repro.multivalue.multivalue import (
    MultiValue,
    Partition,
    cell_partition,
    contains_multi,
    make_multi,
    project,
    regroup,
)
from repro.trace.events import Request


class _State:
    """Mutable state of one compiled run over a group (the compiled
    analog of :class:`repro.lang.interp._RunState`; ``globals`` is the
    top-level frame dict, which ``global``-using function frames link
    back to)."""

    __slots__ = ("requests", "size", "merge", "regroup", "identity",
                 "output", "flow", "in_tx", "steps", "multi_steps",
                 "multi_classes", "multi_cells", "depth", "globals")

    def __init__(self, requests: list[Request], flow: int | None,
                 collapse: bool):
        self.requests = requests
        self.size = len(requests)
        #: ``merge(per-slot values)`` is what the group read,
        #: ``regroup(partition, per-class values)`` the result of work
        #: done per class.  Ablation hook: with collapse off both build
        #: a multivalue on the identity partition even when uniform
        #: (benchmarks measure the cost).
        self.merge = make_multi
        self.regroup = regroup
        #: The partition with a class per slot, made on first use
        #: (:func:`_identity`).
        self.identity: Partition | None = None
        if not collapse:
            self.merge = partial(MultiValue, _identity(self))
            self.regroup = MultiValue
        self.output: list[object] = []  # str, or MultiValue of str
        #: The running control-flow digest (§4.3), ``None`` when not
        #: recording: the value a :class:`~repro.common.digest.FlowDigest`
        #: fed the same branches would hold.  Branch closures fold their
        #: arm's pre-mixed constant into it in line.
        self.flow = flow
        self.in_tx = False
        self.steps = 0
        self.multi_steps = 0
        self.multi_classes = 0
        #: Set once an array cell has been given a multivalue; until
        #: then no array needs scanning for one.
        self.multi_cells = False
        self.depth = 0
        self.globals: dict[str, object] = {}

    def multivalent(self, classes: int) -> None:
        """Book one multivalent step that computed ``classes`` values."""
        self.multi_steps += 1
        self.multi_classes += classes


# -- per-class work, shared by the pure and generator variant of each node ---

#: Stands for the ``[]`` of ``$a[] = ...`` / ``[..., value]`` among keys.
_APPEND = object()


def _truth(value: object, where: str) -> bool:
    """Truthiness of a condition; divergence if it differs by class."""
    kind = type(value)
    if kind is bool or kind is int:
        return value != 0
    if kind is MultiValue:
        truths = {truthy(held) for held in value.values}
        if len(truths) > 1:
            raise DivergenceError(f"branch condition diverges at {where}")
        return truths.pop()
    return truthy(value)


def _identity(state: _State) -> Partition:
    if state.identity is None:
        state.identity = Partition.identity(state.size)
    return state.identity


def _align(operands: Sequence[object], state: _State, private: bool = False,
           part: Partition | None = None
           ) -> tuple[Partition | None, list[list[object]]]:
    """The operands' common partition — the join of ``part``, theirs and
    their multivalue cells' (``None`` if none of them has one) — and,
    for each operand, its value for each class of it.  With ``private``
    no two classes get the same array (module docstring)."""
    cells = state.multi_cells
    for operand in operands:
        kind = type(operand)
        if kind is MultiValue:
            part = operand.part if part is None else part.join(operand.part)
        elif cells and kind is PhpArray:
            part = cell_partition(operand, part)
    if part is None:
        return None, []
    firsts = part.firsts
    columns = []
    for operand in operands:
        kind = type(operand)
        if kind is MultiValue:
            column = operand.values
            if operand.part is not part:
                classes, own_firsts = operand.part.classes, operand.part.firsts
                column = [column[classes[first]] for first in firsts]
                if private:  # a class that was split: its first part
                    for number, first in enumerate(firsts):  # keeps the array
                        if (own_firsts[classes[first]] != first
                                and type(column[number]) is PhpArray):
                            column[number] = column[number].copy()
        elif cells and kind is PhpArray and contains_multi(operand):
            column = [project(operand, first, private) for first in firsts]
        elif private and kind is PhpArray:
            column = [operand.copy() for _ in firsts]
        else:
            column = [operand] * len(firsts)
        columns.append(column)
    return part, columns


def _slots(value: object, state: _State, private: bool = False
           ) -> list[object]:
    """A value per slot — the identity partition's classes — for the
    paths that run per request: shared structure stays shared unless
    ``private``."""
    kind = type(value)
    if kind is not MultiValue and kind is not PhpArray:
        return [value] * state.size
    return _align([value], state, private, _identity(state))[1][0]


def _spread(convert: Callable, value: object, state: _State) -> list:
    """``convert`` of each slot's view of a multivalent ``value``,
    computed once per class: what an intent carries per request."""
    part, (column,) = _align([value], state)
    results = [convert(held) for held in column]
    return [results[number] for number in part.classes]


def _strs(value: object, state: _State) -> list[str]:
    if type(value) is MultiValue:
        return _spread(to_str, value, state)
    return [to_str(value)] * state.size


def _frozen(value: object, state: _State) -> list[object]:
    kind = type(value)
    if kind is MultiValue or (state.multi_cells and kind is PhpArray
                              and contains_multi(value)):
        return _spread(freeze_value, value, state)
    return [freeze_value(value)] * state.size


def _rows(columns: list[list[object]], state: _State) -> list[tuple]:
    """Per-slot tuples from per-argument slot lists."""
    return list(zip(*columns)) if columns else [()] * state.size


def _copy_value(value: object) -> object:
    """The value-semantics copy of an array leaving a variable or cell:
    a copy-on-write handle (:meth:`PhpArray.copy`), one per class."""
    if type(value) is MultiValue:
        return MultiValue(value.part, [
            held.copy() if isinstance(held, PhpArray) else held
            for held in value.values
        ])
    return value.copy()


def _merged_read(values: list[object], state: _State) -> object:
    """Merge what the slots read (request inputs, converted replies); a
    result that stays a multivalue counts as a multivalent step."""
    merged = state.merge(values)
    if type(merged) is MultiValue:
        state.multivalent(len(merged.values))
    return merged


def _written_out(reply: object) -> object:
    """What a reply holds, written out type for type.  A reply is plain
    data — a frozen value, or an object's fields (a query result's) —
    and ``marshal`` (version 2: no back-references) writes such data
    with a type code per cell (``1``, ``1.0``, ``True`` and ``"1"`` all
    differ) and every row's columns in their own order: replies written
    alike convert to ``_equal`` values, at the speed of C.  (It is finer
    than ``_equal`` in one place, ``0.0`` / ``-0.0``, and coarser in
    none a program can see: two NaN cells of the same bits are written
    alike.)  Anything else stands for itself."""
    fields = getattr(reply, "__dict__", None)
    try:
        if fields is None:
            return marshal.dumps(reply, 2)
        return marshal.dumps([id(type(reply)), fields], 2)
    except ValueError:
        return reply


def _merged_replies(convert: Callable, replies: list[object],
                    state: _State) -> object:
    """What the slots read from an object: grouped as it came — the very
    same reply first (a deduplicated query, an interned scalar), then
    replies that hold the same (:func:`_written_out`) — and converted
    once per class."""
    if state.merge is not make_multi:  # a class per slot
        return _merged_read([convert(reply) for reply in replies], state)
    first = replies[0]
    for reply in replies:
        if reply is not first:
            break
    else:
        return convert(first)
    written = {id(reply): reply for reply in replies}
    for key, reply in written.items():
        written[key] = _written_out(reply)
    merged = make_multi([written[id(reply)] for reply in replies])
    if type(merged) is not MultiValue:
        return convert(first)
    part = merged.part
    merged = regroup(part, [convert(replies[slot]) for slot in part.firsts])
    if type(merged) is MultiValue:
        state.multivalent(len(merged.values))
    return merged


def _multi_binop(apply: Callable, left: object, right: object,
                 state: _State) -> object:
    """``apply`` (an operator-table entry) once per class, with scalar
    expansion of a univalue operand."""
    if type(right) is not MultiValue:
        part = left.part
        values = [apply(held, right) for held in left.values]
    elif type(left) is not MultiValue:
        part = right.part
        values = [apply(left, held) for held in right.values]
    else:
        part, columns = _align((left, right), state)
        values = list(map(apply, *columns))
    state.multivalent(len(values))
    return state.regroup(part, values)


def _binop(apply: Callable, left: object, right: object,
           state: _State) -> object:
    if type(left) is MultiValue or type(right) is MultiValue:
        return _multi_binop(apply, left, right, state)
    return apply(left, right)


def _unop(apply: Callable, value: object, state: _State) -> object:
    if type(value) is MultiValue:
        state.multivalent(len(value.values))
        return state.regroup(value.part,
                             [apply(held) for held in value.values])
    return apply(value)


def _index_one(base: object, index: object) -> object:
    if isinstance(base, PhpArray):
        return base.get(index)
    if isinstance(base, str):
        position = to_int(index)
        if 0 <= position < len(base):
            return base[position]
        return ""
    raise WeblangError("indexing a non-array value")


def _index(base: object, index: object, state: _State) -> object:
    if type(base) is MultiValue or type(index) is MultiValue:
        part, columns = _align((base, index), state)
        state.multivalent(len(part.firsts))
        return state.regroup(part, list(map(_index_one, *columns)))
    value = _index_one(base, index)
    if type(value) is MultiValue:  # a cell holding one (§4.3)
        state.multivalent(len(value.values))
    return value


def _call_builtin(builtin: Callable, args: list[object],
                  state: _State) -> object:
    """A pure built-in: once if no argument differs by slot, else split
    into one univalue invocation per class (§4.3)."""
    multi_cells = state.multi_cells
    for arg in args:
        kind = type(arg)
        if kind is MultiValue or (multi_cells and kind is PhpArray
                                  and contains_multi(arg)):
            break
    else:
        return builtin(*args)
    part, columns = _align(args, state, private=True)
    state.multivalent(len(part.firsts))
    return state.regroup(part, list(map(builtin, *columns)))


def _foreach_items(subject: object, state: _State, where: str):
    """The (key, value) pairs a foreach binds, trip by trip; the caller
    copies each value as it binds it."""
    if type(subject) is not MultiValue:
        if not isinstance(subject, PhpArray):
            raise WeblangError("foreach over a non-array")
        return subject.items()
    for array in subject.values:
        if not isinstance(array, PhpArray):
            raise WeblangError("foreach over a non-array")
    if len({len(array) for array in subject.values}) > 1:
        raise DivergenceError(f"foreach trip count diverges at {where}")
    part, regroup = subject.part, state.regroup
    return (
        (regroup(part, [key for key, _ in trip]),
         regroup(part, [value for _, value in trip]))
        for trip in zip(*[array.items() for array in subject.values])
    )


def _descend_one(container: PhpArray, key: object) -> PhpArray:
    inner = container.descend(key)
    if type(inner) is MultiValue:
        # A univalue path ran into a cell holding per-class arrays.
        raise MultivalueFallback("nested assignment through a multivalue cell")
    if not isinstance(inner, PhpArray):
        raise WeblangError("cannot index into a scalar")
    return inner


def _descend(container: object, key: object, state: _State,
             held: list) -> object:
    """One level down an index-assignment path: in the one shared
    container, or — once the root expanded (a list) — in every slot's;
    what it descended from goes on ``held``, for :func:`_release`."""
    if type(container) is list:
        held.extend(container)
        return list(map(_descend_one, container, _slots(key, state)))
    held.append(container)
    return _descend_one(container, key)


def _release(held: list[PhpArray]) -> None:
    """The index assignment is done: release what it descended from."""
    for container in held:
        container.release()


def _expand(root: object, walked: Sequence[object], state: _State,
            held: list | None = None) -> tuple[MultiValue, list[PhpArray]]:
    """§4.3 expansion: the containers are no longer equivalent across
    the group.  Returns private per-slot copies of ``root`` (on the
    identity partition) and, in each, the container at the end of the
    (univalue) path walked so far, descended as :func:`_descend` does."""
    roots = _slots(root, state, private=True)
    containers = roots
    for key in walked:
        if held is not None:
            held.extend(containers)
        containers = [container.descend(key) for container in containers]
    return MultiValue(_identity(state), roots), containers


def _no_key(*_args: object) -> None:
    """Stands in for the key of a ``[]`` that is not the last index."""
    raise WeblangError("'[]' only allowed as the last index")


def _set_cell(container: PhpArray, key: object, value: object) -> None:
    if key is _APPEND:
        container.append(value)
    else:
        container.set(key, value)


def _assign_cell(container: object, key: object, value: object,
                 apply: Callable | None, state: _State) -> None:
    """The store that ends an index assignment (``apply`` is the
    compound operator's value function, if any)."""
    if type(container) is list:
        state.multivalent(state.size)
        for slot_container, slot_key, slot_value in zip(
            container, _slots(key, state), _slots(value, state, private=True)
        ):
            if apply is not None:
                slot_value = apply(slot_container.get(slot_key), slot_value)
            _set_cell(slot_container, slot_key, slot_value)
        return
    if type(value) is MultiValue:  # "cells can hold multivalues", §4.3
        state.multivalent(len(value.values))
    if apply is not None:
        value = _binop(apply, container.get(key), value, state)
    if type(value) is MultiValue:
        state.multi_cells = True
    _set_cell(container, key, value)


def _add_item(array: object, key: object, value: object,
              state: _State) -> object:
    """One more item of an array literal: into the one array, or — from
    the first key that differs by slot on — into one array per slot."""
    if type(array) is not list:
        if type(key) is not MultiValue:
            if type(value) is MultiValue:
                state.multi_cells = True
            _set_cell(array, key, value)
            return array
        state.multivalent(state.size)
        array = _slots(array, state, private=True)
    for slot_array, slot_key, slot_value in zip(
        array, _slots(key, state), _slots(value, state, private=True)
    ):
        _set_cell(slot_array, slot_key, slot_value)
    return array


def _literal(array: object, state: _State) -> object:
    """The value of a finished array literal (see :func:`_add_item`)."""
    return state.merge(array) if type(array) is list else array


def _multi_text(value: MultiValue, state: _State) -> MultiValue:
    """What ``echo`` appends for a multivalue: each class's text."""
    state.multivalent(len(value.values))
    return MultiValue(value.part, [to_str(held) for held in value.values])


def _render(state: _State) -> list[str]:
    """Every slot's body: one per class of the partition the multivalue
    pieces of the output have in common, spread."""
    output = state.output
    positions = [position for position, piece in enumerate(output)
                 if type(piece) is MultiValue] if state.multi_steps else ()
    if not positions:  # echoing a multivalue counts as a multivalent step
        return ["".join(output)] * state.size
    part, columns = _align([output[position] for position in positions],
                           state)
    bodies = []
    for texts in zip(*columns):
        for position, text in zip(positions, texts):
            output[position] = text
        bodies.append("".join(output))
    return [bodies[number] for number in part.classes]
