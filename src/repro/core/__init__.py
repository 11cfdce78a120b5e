"""SSCO: the audit algorithms (Sections 3, A; Figures 3, 5, 6, 12, 13).

Public entry points:

* :func:`repro.core.verifier.ssco_audit` — the full SSCO_AUDIT2 pipeline
  (balance check, consistent-ordering verification, versioned-store builds,
  SIMD-on-demand re-execution with simulate-and-check, output comparison).
* :func:`repro.core.ooo.simple_audit` — the out-of-order, per-request
  audit (Figure 13's OOOExec), used as the non-accelerated baseline and in
  the Lemma 8 equivalence tests.
* :func:`repro.core.timeprec.create_time_precedence_graph` — the streaming
  frontier algorithm (Figure 6).
* :mod:`repro.core.pipeline` — the phased audit engine
  (:class:`~repro.core.pipeline.AuditPipeline` of composable
  :class:`~repro.core.pipeline.AuditPhase` objects) every entry point
  above is built on.
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
from repro.core.verifier import ssco_audit
from repro.core.ooo import ooo_audit, simple_audit
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
