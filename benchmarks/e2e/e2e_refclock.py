"""CPU time read against a reference kernel, for a host whose speed drifts.

On the shared 2-vCPU host this benchmark is sized for, the CPU time of
one unchanged audit moves between two levels about 1.6x apart as other
tenants come and go, in stretches of a few seconds; medians and minima
of raw CPU time spread 15-45 % from run to run (README.md, "Why the CPU
metrics are normalised").  A fixed pure-Python kernel run beside the
measured code slows down by the same factor.  So the clock below is cut
every tenth of a second or so of measured work, runs the kernel at
every cut, and scales each stretch between two cuts by how long the
kernel took at its two ends.  A reading is then "CPU seconds at the
speed at which the kernel takes ``REFERENCE_KERNEL_SECONDS``", and
repeats within about 5 %.

The kernel is this file's own: nothing under ``src/`` can make it
faster, so a change to the product moves a reading only through the
code it measures.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: CPU seconds a warm kernel run takes on the sizing host while it is
#: quiet.  Only fixes the unit; comparisons do not depend on it.
REFERENCE_KERNEL_SECONDS = 0.0053
KERNEL_STEPS = 5000


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children.

    ``time.process_time`` and ``getrusage`` read the kernel's
    nanosecond/microsecond accounting; ``os.times`` would round to the
    10 ms clock tick, 1 % of an audit repetition.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Node:
    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value
        self.kids: list[_Node] = []

    def total(self) -> int:
        return self.value + sum(kid.value for kid in self.kids)


def _kernel(steps: int = KERNEL_STEPS) -> int:
    """What the audit and the executor spend their time on, in small:
    string keys, dict probes, object allocation, attribute access,
    method calls, and a JSON round trip."""
    table: dict[str, _Node] = {}
    order = []
    acc = 0
    for i in range(steps):
        key = "k%d" % ((i * 7919) % (steps // 2))
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, i)
            order.append(node)
        else:
            node.kids.append(_Node(key, i & 255))
        acc = (acc + node.total()) % 1000003
    text = json.dumps([[node.key, node.value, len(node.kids)]
                       for node in order[: steps // 8]])
    return acc + len(json.loads(text))


class RefClock:
    """A CPU clock with the kernel run at every ``cut``.

    ``now()`` reads CPU seconds with the kernel runs taken out, so the
    measured code can be timed across cuts.  ``at_reference_speed``
    scales each stretch between two cuts by how long the kernel took at
    its two ends.
    """

    def __init__(self):
        #: CPU seconds spent in kernel runs so far.
        self.kernel_cpu = 0.0
        #: (reading of ``now()``, CPU seconds the kernel then took)
        self._cuts: list[tuple[float, float]] = []
        self.cut()

    def now(self) -> float:
        return cpu_seconds() - self.kernel_cpu

    def since_cut(self) -> float:
        return self.now() - self._cuts[-1][0]

    def cut(self) -> None:
        at = self.now()
        # The collector is off meanwhile: a collection would walk the
        # measured program's heap and charge its size to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # The first run only warms the caches: timed cold, the kernel
            # read 9 % apart at two places in the same audit loop,
            # depending on what had just run there.
            begin = cpu_seconds()
            _kernel()
            start = cpu_seconds()
            _kernel()
            end = cpu_seconds()
        finally:
            if collecting:
                gc.enable()
        self.kernel_cpu += end - begin
        self._cuts.append((at, end - start))

    def at_reference_speed(self, start: float, end: float) -> float:
        """The CPU seconds between two readings of ``now()``, had the
        host run at reference speed throughout.  Cut before reading
        the result, so that the last stretch has a kernel run at its end
        too; without one it is scaled by the run at its start."""
        total = 0.0
        for (a, before), (b, after) in zip(self._cuts, self._cuts[1:]):
            overlap = min(b, end) - max(a, start)
            if overlap > 0.0:
                total += overlap * 2.0 / (before + after)
        last, kernel = self._cuts[-1]
        if end > last:
            total += (end - max(last, start)) / kernel
        return total * REFERENCE_KERNEL_SECONDS

    @contextmanager
    def measure(self) -> Iterator[dict]:
        """Times the block; once it ends the yielded dict holds its
        ``raw`` CPU seconds and the same at reference speed, ``ref``."""
        reading: dict[str, float] = {}
        start = self.now()
        try:
            yield reading
        finally:
            end = self.now()
            self.cut()
            reading["raw"] = end - start
            reading["ref"] = self.at_reference_speed(start, end)
