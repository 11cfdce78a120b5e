"""A scoped policy for CPython's cyclic garbage collector.

A serve or an audit builds a long-lived heap, then allocates many
short-lived containers: by default full collections walk that heap
again and again.  Inside :func:`collector_scope` the heap that existed
at the outermost entry is frozen (:func:`gc.freeze`) and generation 0's
threshold is :data:`THRESHOLD`, for the whole process while any thread
is inside a scope; the outermost exit restores both, on error too.
"""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterator
from contextlib import contextmanager

#: Generation 0's threshold inside a scope (CPython's default is 700).
THRESHOLD = 20_000

_lock = threading.Lock()
_depth = 0
#: What the outermost entry found: the thresholds, and whether it froze.
_saved: tuple[tuple[int, ...], bool] = ((), False)


@contextmanager
def collector_scope() -> Iterator[None]:
    """Run the body under the scoped collector policy."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            # A freeze someone else made is theirs to undo: leave it.
            froze = gc.get_freeze_count() == 0
            if froze:
                gc.freeze()
            _saved = (gc.get_threshold(), froze)
            gc.set_threshold(THRESHOLD, *_saved[0][1:])
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_saved[0])
                if _saved[1]:
                    gc.unfreeze()
