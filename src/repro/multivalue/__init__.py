"""Multivalue types for SIMD-on-demand execution (Sections 3.1, 4.3)."""

from repro.multivalue.multivalue import (
    MultiValue,
    collapse,
    components,
    contains_multi,
    is_multi,
    make_multi,
    project,
)

__all__ = ["MultiValue", "collapse", "components", "contains_multi",
           "is_multi", "make_multi", "project"]
