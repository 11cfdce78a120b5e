"""SSCO: the audit algorithms (Sections 3, A; Figures 3, 5, 6, 12, 13).

Public entry points:

* :func:`repro.core.pipeline.ssco_audit` — the full SSCO_AUDIT2 pipeline
  (balance and §4.6 checks, consistent-ordering verification,
  versioned-store builds, SIMD-on-demand re-execution with
  simulate-and-check, output comparison).
* :func:`repro.core.pipeline.simple_audit` — the §5.1 baseline: the same
  phases, but every request re-executed on its own, in trace arrival
  order, on the oracle interpreter.
* :func:`repro.core.pipeline.ooo_audit` — OOOAudit (Figure 13), the
  reference of the Lemma 8 equivalence tests: the same phases, with
  re-execution following an op schedule.
* :func:`repro.core.timeprec.create_time_precedence_graph` — the streaming
  frontier algorithm (Figure 6).
* :mod:`repro.core.pipeline` — the phased audit engine
  (:class:`~repro.core.pipeline.AuditPipeline` of composable
  :class:`~repro.core.pipeline.AuditPhase` objects) the three audits
  above are phase lists of.
* :mod:`repro.core.partition` — the recorder-side cut: an execution's
  epoch marks turned into epoch slices (``ExecutionResult.epochs()``).
* :mod:`repro.core.auditor` — the service API: a long-lived
  :class:`~repro.core.auditor.Auditor` bound to a validated
  :class:`~repro.core.config.AuditConfig`, with incremental epoch
  :class:`~repro.core.auditor.AuditSession` feeding (the paper's
  continuous deployment, §4.1) — the one epoch driver, over the epochs
  the recorder cut.
* :mod:`repro.core.reexec` — the chunk plan and chunk loop behind the
  pipeline's :class:`~repro.core.pipeline.ReExecPhase`; its
  :data:`~repro.core.reexec.BACKENDS` table holds the four backend
  names and how each runs a chunk.
"""

from repro.core.pipeline import (
    AuditContext,
    AuditPipeline,
    AuditPhase,
    AuditResult,
    default_pipeline,
    ooo_audit,
    simple_audit,
    ssco_audit,
    state_precompute_pipeline,
)
from repro.core.auditor import (
    AuditSession,
    Auditor,
    EpochResult,
)
from repro.core.config import AuditConfig
from repro.core.partition import partition_audit_inputs
from repro.core.reexec import default_backend
from repro.core.profile import group_profile, summarize_triples
from repro.core.timeprec import create_time_precedence_graph

__all__ = [
    "AuditConfig",
    "AuditContext",
    "AuditPhase",
    "AuditPipeline",
    "AuditResult",
    "AuditSession",
    "Auditor",
    "EpochResult",
    "create_time_precedence_graph",
    "default_backend",
    "default_pipeline",
    "ooo_audit",
    "partition_audit_inputs",
    "group_profile",
    "simple_audit",
    "ssco_audit",
    "summarize_triples",
    "state_precompute_pipeline",
]
