#!/usr/bin/env python3
"""Continuous auditing: tail a live bundle, audit epoch by epoch.

The paper's deployment model (§4.1) is continuous — the verifier audits
epoch N while the server records epoch N+1, and only migrated state
crosses epoch boundaries.  This example plays both roles:

1. a *server* thread serves a wiki workload, draining every 25 requests
   so the trace has quiescent epoch cuts, and appends the execution to a
   segmented JSONL bundle as it goes (``BundleWriter``);
2. the *verifier* tails the growing bundle (``BundleReader`` with
   ``follow=True``) and feeds each finished epoch into a long-lived
   ``Auditor`` session, printing a per-epoch verdict while the server is
   still writing;
3. at the end, the merged session result is checked against one
   ``ssco_audit`` pass over the whole execution — identical verdict,
   identical produced bodies: the epochs are the server's to cut, and
   where it cut them does not change what the audit concludes.

Run:  python examples/continuous_audit.py
"""

import os
import tempfile
import threading
import time

from repro import AuditConfig, Auditor, ssco_audit
from repro.bench.harness import run_online_phase
from repro.io import BundleReader, BundleWriter
from repro.workloads import wiki_workload

# 1. Record: serve the workload, then replay it into the bundle epoch by
# epoch with a small delay — standing in for a live server mid-stream.
workload = wiki_workload(scale=0.01)
execution = run_online_phase(workload, seed=1, epoch_size=25)
shards = execution.epochs()  # cut where the server drained, nowhere else
print(f"served {len(workload.requests)} {workload.label} requests "
      f"in {len(shards)} epochs")

bundle_path = tempfile.mktemp(suffix=".jsonl", prefix="repro_live_")
state_written = threading.Event()


def server_thread():
    with BundleWriter(bundle_path) as writer:
        writer.write_state(execution.initial_state)
        state_written.set()
        for shard in shards:
            time.sleep(0.05)  # the "next epoch" is still being served
            writer.write_epoch(shard.trace, shard.reports)
        writer.write_end()


server = threading.Thread(target=server_thread)
server.start()
state_written.wait()

# 2. Audit the stream as it grows: one long-lived session, one verdict
# per epoch, migrated state chained internally.
auditor = Auditor(workload.app, AuditConfig())
with BundleReader(bundle_path) as reader:
    initial = reader.read_initial_state(follow=True)
    with auditor.session(initial) as session:
        for epoch in reader.epochs(follow=True, idle_timeout=30):
            result = session.feed_epoch(epoch.trace, epoch.reports)
            verdict = "ACCEPTED" if result.accepted else "REJECTED"
            print(f"  epoch {result.index}: {verdict} "
                  f"({result.requests} requests, "
                  f"{result.phases['total'] * 1e3:.1f} ms)")
    merged = session.close()
server.join()

# 3. Where the server cut its epochs changes what the auditor holds in
# memory, not what it concludes: one pass over the whole execution
# reaches the same verdict and re-executes the same bodies.
one_pass = ssco_audit(workload.app, execution.trace, execution.reports,
                      execution.initial_state)
assert merged.accepted and one_pass.accepted
assert merged.produced == one_pass.produced
assert merged.stats["shard_count"] == len(shards)
print(f"session total: {merged.phases['total'] * 1e3:.1f} ms over "
      f"{merged.stats['shard_count']} epochs — verdict and produced "
      f"bodies identical to one pass over everything")
os.unlink(bundle_path)
print("OK")
