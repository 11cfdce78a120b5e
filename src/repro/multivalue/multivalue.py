"""The multivalue runtime type (Sections 3.1, 4.3).

A :class:`MultiValue` holds one component per request in the control-flow
group being re-executed ("a multivalue int can be thought of as a vector of
ints").  Invariants:

* a MultiValue always has cardinality equal to the group size ("a collapse
  is all or nothing: every multivalue has cardinality equal to the number
  of requests being re-executed");
* components are plain weblang values (never nested MultiValues) — a
  component may be a :class:`~repro.lang.values.PhpArray` whose *cells*
  hold only plain values;
* a MultiValue whose components are all equal must not exist: the
  engine (:mod:`repro.lang.compile`) builds everything it produces with
  :func:`make_multi`, which hands back a univalue instead — "this is
  crucial to deduplication" (§4.3).

``collapse`` compares scalars with ``==`` (plus type compatibility) and
arrays by value.  Collapsing distinct-but-equal arrays to a single shared
array is safe because every mutation path in the engine either applies
an identical (univalent) mutation to the shared array — the same thing
that happened in each original execution — or first *expands* the array
into per-request deep copies (scalar expansion of containers, §4.3).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.common.errors import MultivalueFallback, WeblangError
from repro.lang.values import PhpArray


class MultiValue:
    """A vector of per-request values."""

    __slots__ = ("values",)

    def __init__(self, values: list[object]):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        """Only reached when a comparison walks into an array *cell*
        that holds a multivalue (operands are expanded before they are
        compared): the answer may differ by slot, so retry per request."""
        if other is self:
            return True
        raise MultivalueFallback("comparison through a multivalue cell")

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiValue({self.values!r})"


def is_multi(value: object) -> bool:
    return isinstance(value, MultiValue)


def _equal(a: object, b: object) -> bool:
    """Component equality for collapsing.

    Deliberately *stricter* than weblang ``==`` (no type juggling): 1 and
    "1" must not collapse, because programs can observe their type.  int and
    float compare equal only when both value and integerness agree — the
    paper's int/float mixture support means 2 and 2.0 stay a multivalue
    unless truly identical.
    """
    if a is b:
        return True
    ta, tb = type(a), type(b)
    if ta is not tb or ta is MultiValue:
        return False
    if ta is PhpArray:
        return _arrays_equal(a, b)  # type: ignore[arg-type]
    return a == b


def _arrays_equal(a: PhpArray, b: PhpArray) -> bool:
    if len(a) != len(b):
        return False
    items_a = a.items()
    items_b = b.items()
    for (ka, va), (kb, vb) in zip(items_a, items_b):
        if ka != kb or not _equal(va, vb):
            return False
    return True


def collapse(value: object) -> object:
    """Collapse a MultiValue with identical components to a univalue."""
    if not isinstance(value, MultiValue):
        return value
    values = value.values
    first = values[0]
    for other in values[1:]:
        if not _equal(first, other):
            return value
    return first


def make_multi(values: list[object]) -> object:
    """Build a MultiValue from per-request values, collapsing if uniform
    (the usual case builds nothing)."""
    first = values[0]
    for other in values:
        if other is not first and not _equal(first, other):
            return MultiValue(values)
    return first


def components(value: object, size: int) -> list[object]:
    """Per-request view of a value: scalar expansion for univalues.

    For univalue (shared) components the *same* object is returned for each
    slot; callers that intend to mutate must use :func:`expand_array`.
    """
    if isinstance(value, MultiValue):
        if len(value.values) != size:
            raise WeblangError(
                f"multivalue cardinality {len(value.values)} != group size "
                f"{size}"
            )
        return value.values
    return [value] * size


def contains_multi(array: PhpArray) -> bool:
    """Whether any cell of ``array``, at any depth, holds a MultiValue
    ("a container's cells can hold multivalues", §4.3)."""
    for cell in array.data.values():
        kind = type(cell)
        if kind is MultiValue or (kind is PhpArray and contains_multi(cell)):
            return True
    return False


def project(value: object, slot: int, copy_arrays: bool = False) -> object:
    """One slot's view of a value.

    MultiValues yield their component; arrays containing multivalues are
    rebuilt with projected cells.  ``copy_arrays`` forces fresh copies of
    all arrays, guaranteeing the result shares no structure with other
    slots (used before per-slot mutation).
    """
    if isinstance(value, MultiValue):
        return project(value.values[slot], slot, copy_arrays)
    if isinstance(value, PhpArray) and (copy_arrays
                                        or contains_multi(value)):
        out = PhpArray()
        out._next_index = value._next_index
        for key, cell in value.data.items():
            out.data[key] = project(cell, slot, copy_arrays)
        return out
    return value


def expand_array(value: object, size: int) -> MultiValue:
    """Scalar-expand a container into per-request deep copies (§4.3).

    Used when "the objects were no longer equivalent" in the original
    executions — e.g. a set with a multivalue key on a univalue array.
    """
    if isinstance(value, MultiValue):
        out: list[object] = []
        seen_ids = {}
        for component in value.values:
            if isinstance(component, PhpArray):
                # The same array object may appear in several slots (it was
                # broadcast); each slot needs its own copy exactly once.
                if id(component) in seen_ids:
                    out.append(component.deep_copy())
                else:
                    seen_ids[id(component)] = True
                    out.append(component)
            else:
                out.append(component)
        return MultiValue(out)
    if not isinstance(value, PhpArray):
        raise WeblangError("expand_array() expects an array")
    return MultiValue([value] + [value.deep_copy() for _ in range(size - 1)])


def map_componentwise(
    func: Callable[..., object], size: int, args: Sequence[object]
) -> object:
    """Apply ``func`` componentwise over mixed multi/uni arguments.

    Performs scalar expansion on univalue arguments, calls ``func`` once
    per slot, and collapses the result — the core multivalent-execution
    step of Figure 2.
    """
    expanded = [components(arg, size) for arg in args]
    results = [
        func(*(arg[slot] for arg in expanded)) for slot in range(size)
    ]
    return make_multi(results)
