"""Shared primitives: error types, control-flow digests, id helpers.

These are used by every other subpackage; nothing here depends on the
rest of the library.
"""

from repro.common.errors import (
    AuditReject,
    DivergenceError,
    MalformedBundle,
    RejectReason,
    ReproError,
    WeblangError,
    SqlError,
)
from repro.common.digest import FlowDigest

__all__ = [
    "AuditReject",
    "DivergenceError",
    "FlowDigest",
    "MalformedBundle",
    "RejectReason",
    "ReproError",
    "SqlError",
    "WeblangError",
]
