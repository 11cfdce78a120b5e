"""The multivalue runtime type (§3.1, §4.3): classes of requests that
agree, the partitions that name them, and the helpers of the compiled
engine that work per class (:mod:`repro.lang.simd`)."""

from __future__ import annotations

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import simd
from repro.lang.values import PhpArray, freeze_value, thaw_value
from repro.multivalue.multivalue import (
    MultiValue,
    Partition,
    _equal,
    make_multi,
    regroup,
)
from repro.sql.engine import StmtResult
from repro.trace.events import Request


def state_of(size, collapse=True):
    requests = [Request(f"r{slot}", "s.php") for slot in range(size)]
    return simd._State(requests, None, collapse)


# -- collapse: all classes equal <=> a univalue ------------------------------


def test_collapse_uniform_scalars():
    assert make_multi([3, 3, 3]) == 3


def test_no_collapse_when_different():
    value = make_multi([3, 4, 3])
    assert isinstance(value, MultiValue)
    assert value.values == [3, 4]  # one value per class ...
    assert value.part.classes == [0, 1, 0]  # ... of requests that agree
    assert value.part.firsts == [0, 1]
    assert value.slots() == [3, 4, 3]


def test_collapse_is_type_strict():
    """1 and "1" (and 1 and 1.0) must not collapse: programs can observe
    the type difference."""
    assert isinstance(make_multi([1, "1"]), MultiValue)
    assert isinstance(make_multi([1, 1.0]), MultiValue)
    assert isinstance(make_multi([0, False]), MultiValue)
    assert make_multi([1.0, 1.0]) == 1.0


def test_one_one_point_zero_true_and_the_string_are_four_classes():
    """Merging two requests that differ is a soundness bug, not a
    performance one: a hash key only pre-selects, ``_equal`` admits."""
    value = make_multi([1, 1.0, True, "1", 1, True, "1", 1.0])
    assert value.part.classes == [0, 1, 2, 3, 0, 2, 3, 1]
    assert [type(held) for held in value.values] == [int, float, bool, str]


def test_collapse_arrays_by_value():
    a = PhpArray.from_dict({"k": 1})
    b = PhpArray.from_dict({"k": 1})
    collapsed = make_multi([a, b])
    assert isinstance(collapsed, PhpArray)


def test_arrays_differ_in_order_do_not_collapse():
    a = PhpArray()
    a.set("x", 1)
    a.set("y", 2)
    b = PhpArray()
    b.set("y", 2)
    b.set("x", 1)
    assert isinstance(make_multi([a, b]), MultiValue)


def test_arrays_with_differently_typed_cells_are_different_classes():
    def rows(cell):
        return PhpArray.from_list([PhpArray.from_dict({"id": 7, "n": cell})])

    value = make_multi([rows(1), rows(1.0), rows(True), rows("1"), rows(1)])
    assert value.part.classes == [0, 1, 2, 3, 0]


def test_nested_array_collapse():
    def make():
        inner = PhpArray.from_list([1, 2])
        return PhpArray.from_dict({"in": inner})

    assert isinstance(make_multi([make(), make()]), PhpArray)


def test_regroup_keeps_the_partition_or_collapses():
    value = make_multi(["a", "b", "a", "c"])
    kept = regroup(value.part, [1, 2, 1])
    assert kept.part is value.part and kept.values == [1, 2, 1]
    assert regroup(value.part, [5, 5, 5]) == 5


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=6))
def test_collapse_iff_uniform(values):
    result = make_multi(list(values))
    if len(set(values)) == 1:
        assert result == values[0]
    else:
        assert isinstance(result, MultiValue)


@given(st.lists(st.one_of(st.integers(), st.text(max_size=3),
                          st.booleans(), st.none()),
                min_size=2, max_size=5))
def test_cardinality_preserved(values):
    """A multivalue stands for exactly one value per request, however
    few classes hold them."""
    result = make_multi(list(values))
    if isinstance(result, MultiValue):
        assert len(result) == len(result.slots()) == len(values)
        assert 2 <= len(result.values) <= len(values)


_NAN = float("nan")


def _array(cells):
    return PhpArray.from_dict(dict(cells))


#: Values that weblang ``==`` (and a careless dict key) would conflate.
_TYPED = st.one_of(
    st.sampled_from([1, 1.0, True, "1", 0, 0.0, -0.0, False, "", "0",
                     None, 2, 2.0, "2", _NAN]),
    st.builds(lambda: float("nan")),  # a NaN of its own each time
)
_TYPED_ARRAYS = st.recursive(
    st.builds(_array, st.lists(st.tuples(st.sampled_from(["a", "b", 0, 1]),
                                         _TYPED), max_size=3)),
    lambda inner: st.builds(
        _array, st.lists(st.tuples(st.sampled_from(["a", "b", 0]),
                                   st.one_of(_TYPED, inner)), max_size=3)),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TYPED, _TYPED_ARRAYS), min_size=1, max_size=8),
       st.data())
def test_slots_share_a_class_only_if_equal(values, data):
    """For typed values: two slots share a class <=> ``_equal``; every
    class agrees <=> a univalue comes back; classes are numbered by
    their first slot."""
    # Some slots hold the very same object as an earlier one.
    for slot in range(1, len(values)):
        if data.draw(st.booleans()):
            values[slot] = values[data.draw(st.integers(0, slot - 1))]
    result = make_multi(list(values))
    uniform = all(_equal(values[0], other) for other in values)
    assert uniform == (not isinstance(result, MultiValue))
    if uniform:
        assert _equal(result, values[0])
        return
    part = result.part
    assert len(part.classes) == len(values)
    assert part.firsts == sorted(part.firsts)
    assert [part.classes[first] for first in part.firsts] == list(
        range(len(part.firsts)))
    for slot, number in enumerate(part.classes):
        assert part.firsts[number] <= slot
        assert _equal(result.values[number], values[slot])
        for other, other_number in enumerate(part.classes):
            assert (number == other_number) == _equal(values[slot],
                                                      values[other])


# -- partitions ----------------------------------------------------------------


def partition_of(labels):
    """The partition that groups slots with equal labels."""
    grouped = make_multi(list(labels))
    if isinstance(grouped, MultiValue):
        return grouped.part
    return Partition([0] * len(labels), [0])


def _refines(fine, coarse):
    return len(set(zip(fine.classes, coarse.classes))) == len(fine.firsts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda size: st.tuples(
    st.lists(st.integers(0, 3), min_size=size, max_size=size),
    st.lists(st.integers(0, 3), min_size=size, max_size=size))))
def test_join_is_the_coarsest_common_refinement(labels):
    left, right = partition_of(labels[0]), partition_of(labels[1])
    joined = left.join(right)
    size = len(labels[0])
    for a in range(size):
        for b in range(size):
            together = (left.classes[a] == left.classes[b]
                        and right.classes[a] == right.classes[b])
            assert (joined.classes[a] == joined.classes[b]) == together
    # Classes are numbered by their first slot.
    assert [joined.classes[first] for first in joined.firsts] == list(
        range(len(joined.firsts)))
    assert joined.firsts == sorted(joined.firsts)
    assert all(joined.firsts[number] <= slot
               for slot, number in enumerate(joined.classes))
    # An operand that already is the refinement comes back itself.
    if _refines(left, right):
        assert joined is left
    elif _refines(right, left):
        assert joined is right
    else:
        assert joined is not left and joined is not right
    assert left.join(right) is joined  # cached per pair
    assert left.join(left) is left
    identity = Partition.identity(size)
    assert identity.join(left) is identity and left.join(identity) in (
        identity, left)


def test_identity_partition_is_the_vector():
    identity = Partition.identity(3)
    assert identity.classes == identity.firsts == [0, 1, 2]
    value = MultiValue(identity, ["a", "a", "a"])  # collapse-off builds these
    assert value.slots() == ["a", "a", "a"] and len(value) == 3


# -- the per-class helpers of the engine ------------------------------------------


def test_components_broadcast():
    """The per-slot view: a univalue is every slot's, a multivalue's
    class values go to the slots of their classes."""
    state = state_of(3)
    assert simd._slots(5, state) == [5, 5, 5]
    assert simd._slots(make_multi([1, 2, 1]), state) == [1, 2, 1]


def test_map_componentwise_scalar_expansion():
    state = state_of(3)
    result = simd._multi_binop(operator.add, make_multi([1, 2, 1]), 10,
                               state)
    assert result.slots() == [11, 12, 11]
    assert result.values == [11, 12]  # one call per class, not per slot
    assert (state.multi_steps, state.multi_classes) == (1, 2)


def test_map_componentwise_collapses():
    state = state_of(3)
    result = simd._multi_binop(lambda a, b: a * 0, make_multi([1, 2, 3]), 1,
                               state)
    assert result == 0


def test_operands_from_one_read_share_their_partition():
    """Derived multivalues keep the partition by identity, so aligning
    them is one ``is`` test and k operator calls."""
    state = state_of(4)
    read = make_multi(["a", "b", "a", "b"])
    upper = simd._unop(str.upper, read, state)
    assert upper.part is read.part
    calls = []

    def concat(left, right):
        calls.append((left, right))
        return left + right

    both = simd._multi_binop(concat, read, upper, state)
    assert both.part is read.part and calls == [("a", "A"), ("b", "B")]
    assert both.slots() == ["aA", "bB", "aA", "bB"]


def test_different_partitions_are_joined():
    state = state_of(4)
    left = make_multi(["a", "a", "b", "b"])
    right = make_multi([1, 2, 1, 1])
    pairs = simd._multi_binop(lambda a, b: f"{a}{b}", left, right, state)
    assert pairs.slots() == ["a1", "a2", "b1", "b1"]
    assert pairs.values == ["a1", "a2", "b1"]
    assert state.multi_classes == 3


def test_builtin_splits_per_class_with_private_arrays():
    """A univalue array broadcast to a built-in that may keep or mutate
    it is copied per class; a class's own array is handed over as is."""
    state = state_of(4)
    seen = []

    def keep(array, tag):
        seen.append(array)
        array.append(tag)
        return array

    shared = PhpArray.from_list([0])
    result = simd._call_builtin(keep, [shared, make_multi(list("xyxy"))],
                                state)
    assert len(seen) == 2 and seen[0] is not seen[1]
    assert len(shared) == 1  # neither call got the caller's array
    assert [array.values() for array in result.slots()] == [
        [0, "x"], [0, "y"], [0, "x"], [0, "y"]]


def test_expand_array_copies_per_slot():
    """§4.3 expansion refines to the identity partition: every slot gets
    an array of its own, the slots of one class included."""
    state = state_of(3)
    expanded, containers = simd._expand(PhpArray.from_list([1, 2]), [],
                                        state)
    assert expanded.part.classes == [0, 1, 2]
    expanded.values[1].append(99)
    assert len(expanded.values[0]) == 2
    assert len(expanded.values[2]) == 2
    # A multivalue root: the first slot of a class keeps the class's
    # array, the others get copies.
    a, b = PhpArray.from_list([1]), PhpArray.from_list([2])
    grouped = make_multi([a, b, PhpArray.from_list([1])])
    assert grouped.part.classes == [0, 1, 0]
    expanded, containers = simd._expand(grouped, [], state)
    assert containers[0] is a and containers[1] is b
    assert containers[2] is not a
    containers[2].append(3)
    assert len(a) == 1


def _nested_arrays():
    leaf = st.lists(st.integers(0, 3), max_size=3).map(PhpArray.from_list)
    return st.recursive(
        leaf,
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(
            PhpArray.from_list),
        max_leaves=5)


def _scribble(array):
    """Write through ``array`` at every depth, the way the engines do:
    down through the write accessor, never through ``get``."""
    for key in array.keys():
        if isinstance(array.get(key), PhpArray):
            _scribble(array.descend(key))
            array.release()
    array.append("scribbled")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda size: st.tuples(
    st.lists(st.integers(0, 2), min_size=size, max_size=size),
    st.lists(st.integers(0, 2), min_size=size, max_size=size),
    st.lists(_nested_arrays(), min_size=3, max_size=3))))
def test_no_write_through_one_class_reaches_another(drawn):
    """An array handed to work that may keep or mutate it is private to
    its class: whatever is written through it — at any depth, after a
    class was split, after a univalue was broadcast — shows in no other
    class and not in the multivalue it was copied from."""
    labels, other_labels, arrays = drawn
    size = len(labels)
    state = state_of(size)
    # One array per class of ``labels`` (equal labels: one shared array).
    part = partition_of(labels)
    held = [arrays[labels[first]].deep_copy() for first in part.firsts]
    value = (MultiValue(part, held) if len(held) > 1 else held[0])
    before = freeze_value(arrays[0]), [freeze_value(a) for a in held]

    def untouched():
        return (freeze_value(arrays[0]),
                [freeze_value(a) for a in held]) == before

    # 1. The value-semantics copy shares nothing with its source.
    copied = simd._copy_value(value)
    for array in (copied.values if isinstance(copied, MultiValue)
                  else [copied]):
        _scribble(array)
    assert untouched()

    # 2. Private columns on a finer partition (the join splits classes)
    # beside a broadcast univalue array: every class its own arrays.
    other = make_multi(list(other_labels))
    operands = [simd._copy_value(value), arrays[0], other]
    if not any(isinstance(operand, MultiValue) for operand in operands):
        return
    joined, columns = simd._align(operands, state, private=True)
    for column in columns[:2]:
        snapshots = [freeze_value(array) for array in column]
        for number, array in enumerate(column):
            _scribble(array)
            snapshots[number] = freeze_value(array)
            assert [freeze_value(a) for a in column] == snapshots
    assert untouched()

    # 3. Per-slot expansion: every slot its own, one class's slots too.
    slots = simd._slots(simd._copy_value(value), state, private=True)
    snapshots = [freeze_value(array) for array in slots]
    for slot, array in enumerate(slots):
        _scribble(array)
        snapshots[slot] = freeze_value(array)
        assert [freeze_value(a) for a in slots] == snapshots
    assert untouched()


# -- replies: grouped as they come, converted once per class --------------------


def _thawed(replies, collapse=True):
    state = state_of(len(replies), collapse)
    calls = []

    def convert(reply):
        calls.append(reply)
        return thaw_value(reply)

    return simd._merged_replies(convert, replies, state), calls, state


def test_replies_that_are_one_object_or_equal_convert_once():
    frozen = freeze_value(PhpArray.from_dict({"cart": PhpArray(), "n": 1}))
    twin = freeze_value(PhpArray.from_dict({"cart": PhpArray(), "n": 1}))
    assert frozen is not twin
    other = freeze_value(PhpArray.from_dict({"cart": PhpArray(), "n": 2}))
    merged, calls, state = _thawed([frozen, other, frozen, twin])
    assert merged.part.classes == [0, 1, 0, 0]
    assert len(calls) == 2  # one conversion per class
    assert (state.multi_steps, state.multi_classes) == (1, 2)
    uniform, calls, state = _thawed([frozen, twin, frozen])
    assert isinstance(uniform, PhpArray) and len(calls) == 1
    assert state.multi_steps == 0


def test_replies_with_differently_typed_cells_never_share_a_class():
    """``{"n": 1}``, ``{"n": 1.0}``, ``{"n": True}`` and ``{"n": "1"}``
    are equal as dict keys go; a server that answered one request with
    another's row must not be re-executed into agreement."""
    from repro.lang.interp import Interpreter

    def reply(cell):
        return StmtResult(rows=[{"id": 7, "n": cell}])

    replies = [reply(1), reply(1.0), reply(True), reply("1"), reply(1),
               StmtResult(rows=[{"n": 1, "id": 7}])]  # columns swapped
    state = state_of(len(replies))
    merged = simd._merged_replies(
        lambda r: Interpreter._convert_db_result("db_query", r), replies,
        state)
    assert merged.part.classes == [0, 1, 2, 3, 0, 4]
    cells = [rows.get(0).get("n") for rows in merged.values]
    assert [type(cell) for cell in cells] == [int, float, bool, str, int]
    merged, calls, _ = _thawed([("__phparray__", (("n", cell),))
                                for cell in (1, 1.0, True, "1")])
    assert merged.part.classes == [0, 1, 2, 3] and len(calls) == 4


def test_replies_with_collapse_off_stay_per_slot():
    frozen = freeze_value(PhpArray.from_dict({"n": 1}))
    merged, calls, state = _thawed([frozen, frozen, frozen], collapse=False)
    assert isinstance(merged, MultiValue) and len(merged.values) == 3
    assert merged.part.classes == [0, 1, 2] and len(calls) == 3
    assert len({id(array) for array in merged.values}) == 3
    assert state.multi_classes == state.multi_steps * state.size == 3


def test_replies_that_are_objects_group_by_class_and_fields():
    class Reply:
        rows = [{"v": 1}]

    class Other:  # same (no) fields of its own, another class
        rows = [{"v": 2}]

    class Opaque:
        def __init__(self):
            self.handle = object()  # not plain data: stands for itself

    replies = [Reply(), Other(), Reply(), Opaque(), Opaque()]
    replies.append(replies[3])
    state = state_of(len(replies))
    merged = simd._merged_replies(lambda reply: type(reply).__name__
                                  + str(replies.index(reply)), replies, state)
    assert merged.part.classes == [0, 1, 0, 2, 3, 2]
