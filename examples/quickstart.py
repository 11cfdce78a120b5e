#!/usr/bin/env python3
"""Quickstart: deploy a program, serve requests, audit the execution.

This is the paper's whole story in fifty lines:

1. the *principal* writes a program (a weblang script);
2. the *executor* serves requests concurrently, recording reports;
3. the *collector* captures the trace of requests and responses;
4. the *verifier* audits: it accepts the honest execution, and rejects
   the same execution with a single tampered response byte.

Run:  python examples/quickstart.py
"""

from repro import (
    Application,
    AuditConfig,
    Auditor,
    Executor,
    Request,
    ssco_audit,
)
from repro.server.faulty import tamper_response

# 1. The program: a tiny greeting counter using the KV store.
app = Application.from_sources("hello", {
    "hello.php": """
$name = param('name', 'world');
$count = kv_get('greetings');
if (is_null($count)) { $count = 0; }
$count = $count + 1;
kv_set('greetings', $count);
echo 'Hello, ', $name, '! You are visitor #', $count, '.';
""",
})

# 2-3. The executor serves (and records); the collector traces.
requests = [
    Request(f"r{i}", "hello.php", get={"name": name})
    for i, name in enumerate(["Dana", "Pat", "Adrian", "Dana"])
]
result = Executor(app).serve(requests)

print("=== trace ===")
for event in result.trace:
    if event.is_response:
        print(f"  {event.rid}: {event.payload.body}")

print("\n=== reports ===")
print(f"  control-flow groups: {len(result.reports.groups)}")
print(f"  op-log entries:      {result.reports.op_count_total()}")
print(f"  op counts M:         {dict(result.reports.op_counts)}")

# 4. The audit.  ssco_audit is the one-shot call; the equivalent
# service API binds the program to a validated AuditConfig once and
# audits any number of bundles (see examples/continuous_audit.py for
# the incremental, epoch-by-epoch session it also offers).
audit = ssco_audit(app, result.trace, result.reports,
                   result.initial_state)
auditor = Auditor(app, AuditConfig())
service_audit = auditor.audit(result.trace, result.reports,
                              result.initial_state)
assert service_audit.accepted == audit.accepted
print("\n=== audit (honest execution) ===")
print(f"  accepted: {audit.accepted}")
print(f"  phases:   "
      + ", ".join(f"{k}={v * 1e3:.2f}ms"
                  for k, v in sorted(audit.phases.items())))

# A misbehaving executor tampers with one response...
tampered = tamper_response(result.trace, "r2",
                           "Hello, Adrian! You are visitor #1.")
audit2 = ssco_audit(app, tampered, result.reports, result.initial_state)
print("\n=== audit (tampered response for r2) ===")
print(f"  accepted: {audit2.accepted}")
print(f"  reason:   {audit2.reason.value}")
print(f"  detail:   {audit2.detail}")

assert audit.accepted and not audit2.accepted
print("\nOK: honest execution accepted, tampered execution rejected.")
