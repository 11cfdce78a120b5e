"""Multivalue types for SIMD-on-demand execution (Sections 3.1, 4.3)."""

from repro.multivalue.multivalue import (
    MultiValue,
    Partition,
    contains_multi,
    make_multi,
    project,
    regroup,
)

__all__ = ["MultiValue", "Partition", "contains_multi", "make_multi",
           "project", "regroup"]
