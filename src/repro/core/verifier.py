"""The top-level verifier: SSCO_AUDIT2 (Figure 12).

Pipeline::

    check_balanced      (Section 3: balanced trace, unique requestIDs)
    validate nondet     (Section 4.6 plausibility checks)
    ProcessOpReports    (Figure 5: ordering + OpMap)           } ProcOpRep
    kv.Build / db.Build (Figure 12 lines 5-6: versioned redo)  } DB redo
    ReExec2             (grouped SIMD-on-demand + simulate-and-check)
    output comparison   (Figure 12 lines 55-57)

The phases are first-class objects (:mod:`repro.core.pipeline`);
:func:`ssco_audit` is one pass of them over one epoch.  The phase timers
feed the Figure 9 decomposition; the per-group (n, α, ℓ) triples feed
Figure 11; the dedup counters feed §5.2.

Every knob is documented once, on the fields of
:class:`~repro.core.config.AuditConfig`; none of them is about
parallelism, so the audit is the paper's serial one.  An execution
recorded in several epochs is audited through
:meth:`Auditor.audit_epochs(execution.epochs(), ...)
<repro.core.auditor.Auditor.audit_epochs>`, which runs the epochs on a
pool only when handed one (``pool=``, e.g.
:func:`repro.fleet.local_fleet`).
"""

from __future__ import annotations

from repro.core.auditor import Auditor
from repro.core.pipeline import AuditResult
from repro.server.app import Application, InitialState
from repro.server.reports import Reports
from repro.trace.trace import Trace


def ssco_audit(
    app: Application,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    **knobs,
) -> AuditResult:
    """Run the full audit; never raises :class:`AuditReject`.

    Args:
        app: the program (scripts + object configuration) — trusted.
        trace: the collector's trace — trusted to be accurate.
        reports: the executor's reports — untrusted.
        initial_state: shared-object state at epoch start — trusted
            (kept by the verifier; §4.1).
        **knobs: :class:`~repro.core.config.AuditConfig` fields; an
            unknown or invalid one raises naming the key.

    Shorthand for ``Auditor(app, **knobs).audit(trace, reports,
    initial_state)`` — one pipeline pass over the inputs, whole; for
    epoch-by-epoch or long-lived use, hold the
    :class:`~repro.core.auditor.Auditor`.
    """
    return Auditor(app, **knobs).audit(trace, reports, initial_state)
