"""Schedulers: the executor's discretion over interleaving (§3.2, §4.6).

A scheduler picks which ready in-flight request advances next (one
advance = perform one shared-object operation and run to the next one).
The choice is the executor's legitimate discretion: any schedule a
scheduler produces corresponds to a valid concurrent execution, and the
audit must accept all of them (Completeness) — the property-based tests
drive random schedulers through the full pipeline for exactly this reason.
"""

from __future__ import annotations

import random
from collections.abc import Sequence


class Scheduler:
    """Interface: choose one of the ready request ids.

    ``ready`` is in admission order and is the executor's to reuse: read
    it during the call, copy it to keep it."""

    def pick(self, ready: Sequence[str]) -> str:
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Always advance the oldest admitted request: nearly sequential
    behaviour (requests still overlap while blocked on the DB object)."""

    def pick(self, ready: Sequence[str]) -> str:
        return ready[0]


class RoundRobinScheduler(Scheduler):
    """Rotate through ready requests, maximizing interleaving."""

    def __init__(self) -> None:
        self._last: str | None = None

    def pick(self, ready: Sequence[str]) -> str:
        if self._last in ready:
            index = (list(ready).index(self._last) + 1) % len(ready)
        else:
            index = 0
        choice = ready[index]
        self._last = choice
        return choice


class RandomScheduler(Scheduler):
    """Seeded-random interleaving; the workhorse of the property tests."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, ready: Sequence[str]) -> str:
        return ready[self._rng.randrange(len(ready))]

    def getstate(self) -> list:
        """JSON-able PRNG snapshot (scenario-factory checkpoints)."""
        version, internal, gauss = self._rng.getstate()
        return [version, list(internal), gauss]

    def setstate(self, state: list) -> None:
        version, internal, gauss = state
        self._rng.setstate((version, tuple(internal), gauss))


class ScriptedScheduler(Scheduler):
    """Follow an explicit list of rids (the Figure 4 scenarios).

    Each entry consumes one advance of that rid; when the script is
    exhausted or names no ready rid, falls back to FIFO.
    """

    def __init__(self, script: list[str]):
        self._script = list(script)
        self._pos = 0

    def pick(self, ready: Sequence[str]) -> str:
        while self._pos < len(self._script):
            want = self._script[self._pos]
            self._pos += 1
            if want in ready:
                return want
            # Not ready (blocked, done, or not yet admitted): skip the entry.
        return ready[0]
