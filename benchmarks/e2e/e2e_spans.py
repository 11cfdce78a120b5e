"""Spans recorded from the benchmark's own files.

A span is opened around each call into a layer's public functions;
nothing under ``src/`` knows it is being traced.  Spans stay in memory
until the run ends.  CPU is the process's own CPU clock plus the CPU of
reaped children, so a pool's workers are charged to the span that
closed the pool; it is read off a ``RefClock``, so every span also has
its CPU at reference speed (``ref_cpu``), which is what the per-layer
metrics are made of.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager

from e2e_refclock import RefClock
from repro.core.pipeline import AuditContext, AuditPhase


class Tracer:
    """An in-memory span recorder; spans nest by ``with`` scope.

    The clock is cut where a top-level span opens and closes; callers
    cut it in between, at the layer boundaries they pass.  ``ref_cpu``
    is filled in when the top-level span closes.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.clock = RefClock()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._settled = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        top_level = not self._open
        if top_level:
            self.clock.cut()
        record = {
            "workload": self.workload,
            "id": len(self.spans),
            "name": name,
            "parent": None if top_level else self._open[-1],
            "start": time.perf_counter(),
            "end": None,
            "cpu_start": self.clock.now(),
            "cpu": None,
            "ref_cpu": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["cpu"] = self.clock.now() - record["cpu_start"]
            record["end"] = time.perf_counter()
            self._open.pop()
            if top_level:
                self._settle()

    def _settle(self) -> None:
        self.clock.cut()
        for record in self.spans[self._settled:]:
            record["ref_cpu"] = self.clock.at_reference_speed(
                record["cpu_start"], record["cpu_start"] + record["cpu"])
        self._settled = len(self.spans)


def cpu_by_name(spans: list[dict]) -> dict[str, float]:
    """Reference-speed CPU seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["ref_cpu"]
    return totals


def self_cpu(spans: list[dict], span: dict) -> float:
    """A span's reference-speed CPU minus the part its child spans cover."""
    return span["ref_cpu"] - sum(child["ref_cpu"] for child in spans
                                 if child["parent"] == span["id"])


class TracedPhase(AuditPhase):
    """Runs a stock phase inside a span named after it."""

    def __init__(self, inner: AuditPhase, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        # The pipeline files its own timer under the phase's name.
        self.name = inner.name

    def run(self, actx: AuditContext) -> None:
        with self.tracer.span("core." + self.inner.name):
            self.inner.run(actx)
