"""OpMap: the index of the operation logs (Figures 3, 5, 12).

``OpMap : (requestID, opnum) -> (object_name, seqnum)`` — built by
CheckLogs while it validates the logs (Figure 5, line 38), then consulted
by every CheckOp during re-execution.  ``seqnum`` is the 1-based position
of the operation within its object's log.
"""

from __future__ import annotations


Entry = tuple[str, int]  # (object name, 1-based log position)


class OpMap:
    """Thin dict wrapper; exists to make intent explicit and to give the
    tamper tests a stable surface."""

    def __init__(self) -> None:
        #: (rid, opnum) -> entry; CheckLogs fills it directly.
        self.entries: dict[tuple[str, int], Entry] = {}

    def insert(self, rid: str, opnum: int, obj: str, seq: int) -> None:
        self.entries[(rid, opnum)] = (obj, seq)

    def get(self, rid: str, opnum: int) -> Entry | None:
        return self.entries.get((rid, opnum))

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)
