"""The scoped collector policy (:mod:`repro.common.collector`).

Inside a scope the heap that existed at the outermost entry is frozen
and generation 0's threshold is raised; the outermost exit puts both
back — after a normal exit, an exception, nested scopes and scopes on
two threads alike — and a cycle made inside a scope is still garbage
once it exits.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.common.collector import THRESHOLD, collector_scope


def _policy() -> tuple[tuple[int, ...], int]:
    return gc.get_threshold(), gc.get_freeze_count()


def test_a_scope_freezes_and_raises_the_threshold_then_restores_both():
    before = _policy()
    with collector_scope():
        assert gc.get_threshold() == (THRESHOLD, *before[0][1:])
        assert gc.get_freeze_count() > 0
    assert _policy() == before


def test_an_exception_restores_the_policy():
    before = _policy()
    with pytest.raises(RuntimeError, match="inside"):
        with collector_scope():
            raise RuntimeError("inside")
    assert _policy() == before


def test_nested_scopes_restore_at_the_outermost_exit():
    before = _policy()
    with collector_scope():
        frozen = gc.get_freeze_count()
        with collector_scope():
            assert gc.get_threshold()[0] == THRESHOLD
        # The inner exit leaves the outer scope's policy in force.
        assert gc.get_threshold()[0] == THRESHOLD
        assert gc.get_freeze_count() == frozen
    assert _policy() == before


def test_scopes_on_two_threads_restore_once_both_have_exited():
    before = _policy()
    inside = threading.Barrier(2)
    first_out = threading.Event()
    seen: list[tuple[tuple[int, ...], int]] = []

    def first():
        with collector_scope():
            inside.wait()
        first_out.set()

    def second():
        with collector_scope():
            inside.wait()
            first_out.wait()
            seen.append(_policy())  # the first thread has left

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen[0][0][0] == THRESHOLD and seen[0][1] > 0
    assert _policy() == before


def test_many_threads_entering_and_leaving_never_lose_the_policy():
    """Eight threads (more than cores) enter and leave nested scopes with
    a short switch interval: whoever is inside always sees the raised
    threshold — a lost update of the depth would restore it under them
    — and the last exit restores it."""
    before = _policy()
    lost: list[tuple[int, ...]] = []

    def churn():
        for _ in range(1000):
            with collector_scope():
                with collector_scope():
                    if gc.get_threshold()[0] != THRESHOLD:
                        lost.append(gc.get_threshold())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert lost == []
    assert _policy() == before


def test_a_freeze_made_outside_is_left_alone():
    gc.freeze()
    try:
        threshold = gc.get_threshold()
        with collector_scope():
            assert gc.get_threshold()[0] == THRESHOLD
        # Still frozen (frozen objects that die by refcount leave the
        # count, so it is not compared exactly).
        assert gc.get_threshold() == threshold
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


class _Node:
    pass


def test_a_cycle_made_inside_a_scope_is_collectable_after_it():
    with collector_scope():
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
    gc.collect()
    assert ref() is None


def test_the_heap_a_scope_froze_is_collectable_after_it():
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    with collector_scope():
        del node
        gc.collect()
        assert ref() is not None  # frozen: no collection sees it
    gc.collect()
    assert ref() is None
