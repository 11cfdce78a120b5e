"""The multivalue runtime type (Sections 3.1, 4.3), collapsed by class.

The paper's multivalue is a vector with one component per request of the
control-flow group, and its collapse is all or nothing.  Here the
requests of a group that agree on a value share it: a
:class:`MultiValue` holds one value per **class** of requests
(``values[c]``) and a :class:`Partition` that says which requests those
are, so an operation on it runs once per class, not once per request.
Invariants:

* a MultiValue stands for exactly one value per request of the group
  (``len`` is the group size) and has at least two classes — when every
  class holds an equal value it must not exist: :func:`make_multi` and
  :func:`regroup` hand back the univalue instead, "this is crucial to
  deduplication" (§4.3).  Only the collapse-off ablation builds uniform
  ones, on the identity partition (a class per request: the paper's
  vector, and the always-valid fallback);
* class values are plain weblang values (never nested MultiValues) — a
  class value may be a :class:`~repro.lang.values.PhpArray` whose *cells*
  hold only plain values, and it is private to its class: no other class
  and no other multivalue reaches the same array;
* classes are numbered by their first slot, so two partitions that group
  the slots alike are equal list for list;
* partitions are shared **by identity** among multivalues derived from
  one another: operands that came from the same read need one ``is``
  test to be aligned.  Different partitions are joined
  (:meth:`Partition.join`).

**Soundness rule: a hash key pre-selects, ``_equal`` admits.**  Putting
two requests that differ into one class would re-execute a server that
answered one with the other's page into agreement.  A slot joins a class
only when it holds the class's very object or a value :func:`_equal` to
it — the comparison collapse uses, *stricter* than weblang ``==``: ``1``,
``1.0``, ``True`` and ``"1"`` are four classes.  The dict key that finds
the candidates (:func:`_preselect`) never decides.

Sharing one array among the requests of a class is safe for the reason
collapsing equal arrays to a univalue is: every mutation path in the
engine either applies an identical mutation for the whole class — the
same thing that happened in each original execution — or first *expands*
the array into per-request deep copies (scalar expansion of containers,
§4.3).
"""

from __future__ import annotations

from repro.common.errors import MultivalueFallback
from repro.lang.values import PhpArray


class Partition:
    """Which requests of a group share a class: ``classes[slot]`` is the
    slot's class, ``firsts[c]`` the first slot of class ``c``."""

    __slots__ = ("classes", "firsts", "_joins")

    def __init__(self, classes: list[int], firsts: list[int]):
        self.classes = classes
        self.firsts = firsts
        self._joins: dict[Partition, Partition] = {}

    @classmethod
    def identity(cls, size: int) -> Partition:
        """A class per slot: the paper's vector."""
        return cls(list(range(size)), list(range(size)))

    def join(self, other: Partition) -> Partition:
        """The coarsest partition that refines both — ``self`` or
        ``other`` *itself* when it already does, so the values of that
        operand need no re-indexing.  Cached per pair."""
        if other is self:
            return self
        joined = self._joins.get(other)
        if joined is None:
            numbers: dict[tuple[int, int], int] = {}
            classes: list[int] = []
            firsts: list[int] = []
            for slot, pair in enumerate(zip(self.classes, other.classes)):
                number = numbers.get(pair)
                if number is None:
                    number = numbers[pair] = len(firsts)
                    firsts.append(slot)
                classes.append(number)
            if len(firsts) == len(self.firsts):
                joined = self
            elif len(firsts) == len(other.firsts):
                joined = other
            else:
                joined = Partition(classes, firsts)
            self._joins[other] = joined
        return joined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.classes!r})"


class MultiValue:
    """One value per class of requests."""

    __slots__ = ("part", "values")

    def __init__(self, part: Partition, values: list[object]):
        self.part = part
        self.values = values

    def __len__(self) -> int:
        return len(self.part.classes)

    def slots(self) -> list[object]:
        """The value of each request, in slot order (requests of one
        class get the same object)."""
        values = self.values
        return [values[number] for number in self.part.classes]

    def __eq__(self, other: object) -> bool:
        """Only reached when a comparison walks into an array *cell*
        that holds a multivalue (operands are expanded before they are
        compared): the answer may differ by slot, so retry per request."""
        if other is self:
            return True
        raise MultivalueFallback("comparison through a multivalue cell")

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiValue({self.slots()!r})"


def _equal(a: object, b: object) -> bool:
    """Equality for collapsing and for admission to a class.

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
    """Same keys in the same order, ``_equal`` cells."""
    if list(a.data) != list(b.data):
        return False
    cells_a, cells_b = list(a.data.values()), list(b.data.values())
    kinds = list(map(type, cells_a))
    if kinds != list(map(type, cells_b)):
        return False
    if PhpArray not in kinds and MultiValue not in kinds:
        return cells_a == cells_b  # scalars of pairwise equal type
    return all(map(_equal, cells_a, cells_b))


#: Hashable, and ``==`` between two of one type is ``_equal``.
_SCALARS = frozenset((str, bytes, int, float, bool, type(None)))


def _preselect(value: object) -> object:
    """A dict key that ``_equal`` values share.  It only finds the
    classes worth comparing with (values that differ may share it too):
    scalars by type and value, arrays by size and by what their first
    cell, followed down, holds."""
    kind = type(value)
    if kind in _SCALARS:
        return kind, value
    if kind is PhpArray:
        for cell in value.data.values():  # type: ignore[attr-defined]
            return kind, len(value.data), _preselect(cell)  # type: ignore
    return kind


def _group(values: list[object]) -> tuple[Partition, list[object]]:
    """Classes of slots that hold the same object or ``_equal`` values,
    and each class's value (its first slot's)."""
    classes: list[int] = []
    firsts: list[int] = []
    held: list[object] = []
    by_id: dict[int, int] = {}
    by_key: dict[object, list[int]] = {}
    for slot, value in enumerate(values):
        number = by_id.get(id(value))
        if number is None:
            key = _preselect(value)
            candidates = by_key.get(key)
            if candidates is None:
                candidates = by_key[key] = []
            for number in candidates:
                if _equal(held[number], value):
                    break
            else:
                number = len(firsts)
                firsts.append(slot)
                held.append(value)
                candidates.append(number)
            by_id[id(value)] = number
        classes.append(number)
    return Partition(classes, firsts), held


def make_multi(values: list[object]) -> object:
    """What a group read, from per-request values: the univalue when all
    agree (the usual case builds nothing), else a MultiValue over the
    classes of requests that do."""
    first = values[0]
    for other in values:
        if other is not first and not _equal(first, other):
            return MultiValue(*_group(values))
    return first


def regroup(part: Partition, values: list[object]) -> object:
    """The result of per-class work on ``part``: collapsed to a univalue
    when every class got an equal value, else a MultiValue that shares
    ``part`` with the operands it came from.  (The loop is
    :func:`make_multi`'s, in line: both sit under every read and every
    multivalent step.)"""
    first = values[0]
    for other in values:
        if other is not first and not _equal(first, other):
            return MultiValue(part, values)
    return first


def contains_multi(array: PhpArray) -> bool:
    """Whether any cell of ``array``, at any depth, holds a MultiValue
    ("a container's cells can hold multivalues", §4.3)."""
    for cell in array.data.values():
        kind = type(cell)
        if kind is MultiValue or (kind is PhpArray and contains_multi(cell)):
            return True
    return False


def cell_partition(array: PhpArray,
                   part: Partition | None = None) -> Partition | None:
    """The join of ``part`` with the partitions of every multivalue cell
    of ``array``, at any depth (``None`` when there is none)."""
    for cell in array.data.values():
        kind = type(cell)
        if kind is MultiValue:
            part = cell.part if part is None else part.join(cell.part)
        elif kind is PhpArray:
            part = cell_partition(cell, part)
    return part


def project(value: object, slot: int, copy_arrays: bool = False) -> object:
    """One slot's view of a value.

    MultiValues yield the value of the slot's class; arrays containing
    multivalues are rebuilt with projected cells.  ``copy_arrays`` makes
    every array in the result a copy (copy-on-write), so nothing written
    through it shows in other slots (used before per-slot mutation).
    """
    if type(value) is MultiValue:
        value = value.values[value.part.classes[slot]]
        if copy_arrays and type(value) is PhpArray:
            return value.copy()  # a class's array: plain cells
        return value
    if type(value) is not PhpArray:
        return value
    if not contains_multi(value):
        return value.copy() if copy_arrays else value
    out = PhpArray()
    out._next_index = value._next_index
    cells = out.data
    for key, cell in value.data.items():
        kind = type(cell)
        if kind is MultiValue or kind is PhpArray:
            cell = project(cell, slot, copy_arrays)
        cells[key] = cell
    return out
