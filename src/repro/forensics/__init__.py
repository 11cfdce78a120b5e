"""Time-travel forensics over recorded audit bundles.

The batch auditor answers one question — "is the whole trace
consistent with the reports?" — with one verdict.  This package turns
the same versioned state the audit already builds into an interactive
forensic surface:

* :mod:`~repro.forensics.timeline` indexes a bundle: request id →
  (epoch, control-flow group, re-exec chunk, per-object op-sequence
  range), built from the redo-only prepass — no re-execution;
* :mod:`~repro.forensics.asof` reconstructs any SQL result, KV key, or
  register at any epoch boundary or request point, chaining the §4.5
  migrated state across epochs;
* :mod:`~repro.forensics.lineage` computes a request's read lineage
  closure — which earlier requests produced the state it read,
  transitively;
* :mod:`~repro.forensics.reaudit` replays exactly one request's
  control-flow group plus its lineage closure through the audit's
  chunk loop and returns a scoped ACCEPT/REJECT with the
  produced body.

Surfaced on the CLI as ``repro query --as-of <epoch|req-id>`` and
``repro explain <request-id>``; semantics and the soundness caveat are
documented in ``docs/forensics.md``.
"""

from repro.forensics.asof import AsOfError, AsOfPoint, query_asof
from repro.forensics.lineage import Lineage, Producer, request_lineage
from repro.forensics.reaudit import ReauditResult, reaudit_request
from repro.forensics.timeline import RequestEntry, Timeline, UnknownRequest

__all__ = [
    "AsOfError",
    "AsOfPoint",
    "Lineage",
    "Producer",
    "ReauditResult",
    "RequestEntry",
    "Timeline",
    "UnknownRequest",
    "query_asof",
    "reaudit_request",
    "request_lineage",
]
