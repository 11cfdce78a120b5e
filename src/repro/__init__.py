"""repro: a reproduction of "The Efficient Server Audit Problem,
Deduplicated Re-execution, and the Web" (Tan, Yu, Leners, Walfish;
SOSP 2017).

The library implements both sides of the paper's protocol:

* the **online phase**: a concurrent web-application executor for a
  PHP-like language (weblang), with the recording library that produces
  control-flow groupings, operation logs, op counts, and non-determinism
  reports (:mod:`repro.server`, :mod:`repro.lang`, :mod:`repro.sql`,
  :mod:`repro.objects`);
* the **audit phase**: the SSCO verifier — consistent-ordering
  verification, versioned-store redo, SIMD-on-demand re-execution with
  simulate-and-check, and read-query deduplication (:mod:`repro.core`,
  :mod:`repro.lang.compile`, :mod:`repro.multivalue`).

Quickstart::

    from repro import Application, Executor, ssco_audit

    app = Application.from_sources("hello", {
        "hello.php": "echo 'Hello, ', param('name', 'world'), '!';",
    })
    result = Executor(app).serve([...])
    audit = ssco_audit(app, result.trace, result.reports,
                       result.initial_state)
    assert audit.accepted

The server cuts its execution into epochs (``Executor(app,
epoch_size=500)`` drains and marks one every 500 requests) and the
service API audits them one by one, carrying only migrated state
between them::

    from repro import AuditConfig, Auditor
    from repro.fleet import local_fleet

    auditor = Auditor(app, AuditConfig())
    assert auditor.audit_epochs(result.epochs(),
                                result.initial_state).accepted
    # ... with the epochs audited two at a time, by worker processes:
    with local_fleet(2) as pool:
        assert auditor.audit_epochs(result.epochs(), result.initial_state,
                                    pool=pool).accepted
    # ... or as they arrive, from a bundle that is still being written:
    with auditor.session(initial_state) as session:
        for epoch in reader.epochs(follow=True):   # repro.io.BundleReader
            session.feed_epoch(epoch.trace, epoch.reports)
    assert session.close().accepted

The reader can also be a :class:`~repro.net.RemoteBundleReader`
attached to a recorder's :class:`~repro.net.BundlePublisher` over TCP
— same iterator contract, no shared filesystem (:mod:`repro.net`).

See ``examples/quickstart.py``, ``examples/continuous_audit.py``, and
``examples/remote_audit.py`` for the runnable versions.
"""

from repro.core import (
    AuditConfig,
    AuditPipeline,
    AuditResult,
    AuditSession,
    Auditor,
    EpochResult,
    create_time_precedence_graph,
    ooo_audit,
    simple_audit,
    ssco_audit,
)
from repro.server import (
    Application,
    ExecutionResult,
    Executor,
    InitialState,
    NondetSource,
    Reports,
)
from repro.trace import Collector, Request, Response, Trace

__version__ = "1.0.0"


def __getattr__(name: str):
    # The transport's two names load on first use: an audit that reads
    # a file imports no socket code (tests/core/test_layering.py).
    if name in ("BundlePublisher", "RemoteBundleReader"):
        import repro.net

        return getattr(repro.net, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "Application",
    "AuditConfig",
    "AuditPipeline",
    "AuditResult",
    "AuditSession",
    "Auditor",
    "BundlePublisher",
    "Collector",
    "EpochResult",
    "ExecutionResult",
    "Executor",
    "InitialState",
    "NondetSource",
    "RemoteBundleReader",
    "Reports",
    "Request",
    "Response",
    "Trace",
    "create_time_precedence_graph",
    "ooo_audit",
    "simple_audit",
    "ssco_audit",
    "__version__",
]
