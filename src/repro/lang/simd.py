"""The per-slot half of the compiled engine (:mod:`repro.lang.compile`).

What a compiled run over a control-flow group needs at run time: its
mutable state, the intents it yields to the driver, and the helpers its
closures call once an operand *is* a :class:`~repro.multivalue.MultiValue`
(§4.3's rules: componentwise operators with scalar expansion and
collapse, built-in splitting, container expansion, cells that hold
multivalues, divergence at branches).  Each helper is shared by the
pure and the generator variant of the node that calls it, so per-slot
work is written once.

**What is copied.**  Weblang arrays are values, so what a variable holds
is private to it: the components of a multivalue operand are private to
their slots and are handed to per-slot work as they are
(:func:`_private_slots`); only a *univalue* array broadcast across the
slots is copied per slot.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import (
    DivergenceError,
    MultivalueFallback,
    WeblangError,
)
from repro.lang.values import PhpArray, freeze_value, to_int, to_str, truthy
from repro.multivalue.multivalue import (
    MultiValue,
    components,
    contains_multi,
    make_multi,
    project,
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
    steps: int  # "instructions" (AST evaluations) of any one member
    multi_steps: int  # instructions that produced a multivalue
    flow_tag: str | None = None  # the members' shared control-flow digest


class _State:
    """Mutable state of one compiled run over a group (the compiled
    analog of :class:`repro.lang.interp._RunState`; ``globals`` is the
    top-level frame dict, which ``global``-using function frames link
    back to)."""

    __slots__ = ("requests", "size", "merge", "output", "flow", "in_tx",
                 "steps", "multi_steps", "multi_cells", "depth", "globals")

    def __init__(self, requests: list[Request], flow: int | None,
                 collapse: bool):
        self.requests = requests
        self.size = len(requests)
        # Ablation hook: with collapse off every multivalue stays one
        # even when uniform (benchmarks measure the cost).
        self.merge = make_multi if collapse else MultiValue
        self.output: list[object] = []  # str, or MultiValue of str
        #: The running control-flow digest (§4.3), ``None`` when not
        #: recording: the value a :class:`~repro.common.digest.FlowDigest`
        #: fed the same branches would hold.  Branch closures fold their
        #: arm's pre-mixed constant into it in line.
        self.flow = flow
        self.in_tx = False
        self.steps = 0
        self.multi_steps = 0
        #: Set once an array cell has been given a multivalue; until
        #: then no array needs scanning for one.
        self.multi_cells = False
        self.depth = 0
        self.globals: dict[str, object] = {}


# -- per-slot work, shared by the pure and generator variant of each node ----

#: Stands for the ``[]`` of ``$a[] = ...`` / ``[..., value]`` among keys.
_APPEND = object()


def _truth(value: object, where: str) -> bool:
    """Truthiness of a condition; divergence if it differs by slot."""
    kind = type(value)
    if kind is bool or kind is int:
        return value != 0
    if kind is MultiValue:
        truths = {truthy(component) for component in value.values}
        if len(truths) > 1:
            raise DivergenceError(f"branch condition diverges at {where}")
        return truths.pop()
    return truthy(value)


def _has_multi_cells(value: object, state: _State) -> bool:
    return (state.multi_cells and type(value) is PhpArray
            and contains_multi(value))


def _slots(value: object, state: _State) -> list[object]:
    """Per-slot views of an operand, for reading: shared structure stays
    shared."""
    if type(value) is MultiValue:
        return value.values
    if _has_multi_cells(value, state):
        return [project(value, slot) for slot in range(state.size)]
    return [value] * state.size


def _private_slots(value: object, state: _State) -> list[object]:
    """Per-slot values that share no structure across slots, for work
    that may keep or mutate them.  A multivalue's components already are
    (module docstring); a univalue array is copied per slot."""
    kind = type(value)
    if kind is MultiValue:
        return value.values
    if kind is PhpArray:
        return [project(value, slot, copy_arrays=True)
                for slot in range(state.size)]
    return [value] * state.size


def _strs(value: object, state: _State) -> list[str]:
    if type(value) is MultiValue:
        return [to_str(component) for component in value.values]
    return [to_str(value)] * state.size


def _frozen(value: object, state: _State) -> list[object]:
    if type(value) is MultiValue or _has_multi_cells(value, state):
        return [freeze_value(item) for item in _slots(value, state)]
    return [freeze_value(value)] * state.size


def _rows(columns: list[list[object]], state: _State) -> list[tuple]:
    """Per-slot tuples from per-argument slot lists."""
    return list(zip(*columns)) if columns else [()] * state.size


def _copy_value(value: object) -> object:
    """The value-semantics copy of an array leaving a variable or cell."""
    if type(value) is MultiValue:
        return MultiValue([
            component.deep_copy() if isinstance(component, PhpArray)
            else component
            for component in value.values
        ])
    return value.deep_copy()


def _merged_read(values: list[object], state: _State) -> object:
    """Merge what the slots read (inputs, object reads); a result that
    stays a multivalue counts as a multivalent step."""
    merged = state.merge(values)
    if type(merged) is MultiValue:
        state.multi_steps += 1
    return merged


def _merged_replies(convert: Callable, replies: list[object],
                    state: _State) -> object:
    """What the slots read from an object, converted and merged.  When
    every slot got the very same reply (a deduplicated query, an
    interned scalar) it is converted once and is the univalue collapse
    would have compared its way to."""
    first = replies[0]
    if state.merge is make_multi:
        for reply in replies:
            if reply is not first:
                break
        else:
            return convert(first)
    return _merged_read([convert(reply) for reply in replies], state)


def _multi_binop(apply: Callable, left: object, right: object,
                 state: _State) -> object:
    """``apply`` (an operator-table entry) once per slot, with scalar
    expansion of a univalue operand."""
    state.multi_steps += 1
    size = state.size
    return state.merge(list(map(apply, components(left, size),
                                components(right, size))))


def _binop(apply: Callable, left: object, right: object,
           state: _State) -> object:
    if type(left) is MultiValue or type(right) is MultiValue:
        return _multi_binop(apply, left, right, state)
    return apply(left, right)


def _unop(apply: Callable, value: object, state: _State) -> object:
    if type(value) is MultiValue:
        state.multi_steps += 1
        return state.merge([apply(component) for component in value.values])
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
        state.multi_steps += 1
        return state.merge(list(map(_index_one, _slots(base, state),
                                    _slots(index, state))))
    value = _index_one(base, index)
    if type(value) is MultiValue:  # a cell holding one (§4.3)
        state.multi_steps += 1
    return value


def _call_builtin(builtin: Callable, args: list[object],
                  state: _State) -> object:
    """A pure built-in: once if no argument differs by slot, else split
    into one univalue invocation per slot (§4.3)."""
    multi_cells = state.multi_cells
    for arg in args:
        kind = type(arg)
        if kind is MultiValue or (multi_cells and kind is PhpArray
                                  and contains_multi(arg)):
            break
    else:
        return builtin(*args)
    state.multi_steps += 1
    return state.merge(list(map(
        builtin, *[_private_slots(arg, state) for arg in args]
    )))


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
    merge = state.merge
    return (
        (merge([key for key, _ in trip]), merge([value for _, value in trip]))
        for trip in zip(*[array.items() for array in subject.values])
    )


def _descend_one(container: PhpArray, key: object) -> PhpArray:
    inner = container.get(key)
    if inner is None:
        inner = PhpArray()
        container.set(key, inner)
    elif type(inner) is MultiValue:
        # A univalue path ran into a cell holding per-slot arrays.
        raise MultivalueFallback("nested assignment through a multivalue cell")
    elif not isinstance(inner, PhpArray):
        raise WeblangError("cannot index into a scalar")
    return inner


def _descend(container: object, key: object, state: _State) -> object:
    """One level down an index-assignment path: in the one shared
    container, or — once the root expanded (a list) — in every slot's."""
    if type(container) is list:
        return list(map(_descend_one, container, _slots(key, state)))
    return _descend_one(container, key)


def _expand(root: PhpArray, walked: list[object],
            state: _State) -> tuple[MultiValue, list[PhpArray]]:
    """§4.3 expansion: the containers are no longer equivalent across
    the group.  Returns private per-slot copies of ``root`` and, in each,
    the container at the end of the (univalue) path walked so far."""
    roots = [project(root, slot, copy_arrays=True)
             for slot in range(state.size)]
    containers = roots
    for key in walked:
        containers = [container.get(key) for container in containers]
    return MultiValue(roots), containers


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
        state.multi_steps += 1
        for slot_container, slot_key, slot_value in zip(
            container, _slots(key, state), _private_slots(value, state)
        ):
            if apply is not None:
                slot_value = apply(slot_container.get(slot_key), slot_value)
            _set_cell(slot_container, slot_key, slot_value)
        return
    if type(value) is MultiValue:  # "cells can hold multivalues", §4.3
        state.multi_steps += 1
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
        state.multi_steps += 1
        array = [project(array, slot, copy_arrays=True)
                 for slot in range(state.size)]
    for slot_array, slot_key, slot_value in zip(
        array, _slots(key, state), _private_slots(value, state)
    ):
        _set_cell(slot_array, slot_key, slot_value)
    return array


def _literal(array: object, state: _State) -> object:
    """The value of a finished array literal (see :func:`_add_item`)."""
    return state.merge(array) if type(array) is list else array


def _multi_text(value: MultiValue, state: _State) -> MultiValue:
    """What ``echo`` appends for a multivalue: each slot's text."""
    state.multi_steps += 1
    return MultiValue([to_str(component) for component in value.values])


def _render(state: _State) -> list[str]:
    output = state.output
    if not state.multi_steps:  # echoing a multivalue counts as one
        return ["".join(output)] * state.size
    return [
        "".join([part.values[slot] if type(part) is MultiValue else part
                 for part in output])
        for slot in range(state.size)
    ]
