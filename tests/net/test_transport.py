"""The live audit transport end to end (repro.net).

The acceptance bar: ``Auditor.audit_epochs`` over
``RemoteBundleReader.epochs()`` must produce verdicts, produced bodies,
and deterministic stats bit-identical to the same bundle read via the
file-based ``BundleReader`` — on accept and tampered-reject traces,
including after a forced mid-epoch disconnect/reconnect — plus the
publisher-side failure modes: backpressure bounds memory, laggards are
dropped and resume, late connects replay from the spool, evicted
epochs are refused.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import AuditConfig, Auditor
from repro.core.partition import partition_audit_inputs
from repro.io import BundleReader, save_audit_bundle_segmented
from repro.net import BundlePublisher, ProtocolError, RemoteBundleReader
from repro.server import Executor, RandomScheduler
from repro.server.faulty import tamper_response
from repro.server.nondet import NondetSource
from repro.trace.events import Event, Response
from tests.conftest import counter_requests

#: Stats that must match exactly across transports (timers excluded:
#: wall-clock is not deterministic).
_DET_STATS = (
    "shard_count", "graph_nodes", "graph_edges", "db_queries_issued",
    "dedup_hits", "dedup_misses", "groups", "grouped_requests",
    "fallback_requests", "divergences", "steps", "multi_steps",
    "multi_slots", "multi_classes",
    "group_alphas",
)

_SUMMARY_KEYS = ("shard", "requests", "events", "accepted", "groups")


@pytest.fixture
def epoch_execution(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(11),
        max_concurrency=4,
        nondet=NondetSource(seed=11),
        epoch_size=8,
    )
    execution = executor.serve(counter_requests(32))
    assert len(execution.epoch_marks) >= 2
    return execution


def _shards(execution, trace=None):
    return partition_audit_inputs(trace or execution.trace,
                                  execution.reports,
                                  execution.epoch_marks)


def _file_audit(app, execution, tmp_path, trace=None):
    """The reference: the same stream read from a segmented bundle."""
    path = str(tmp_path / "reference.jsonl")
    save_audit_bundle_segmented(path, trace or execution.trace,
                                execution.reports,
                                execution.initial_state,
                                execution.epoch_marks)
    with BundleReader(path) as reader:
        return Auditor(app, AuditConfig()).audit_epochs(
            reader.epochs(), reader.read_initial_state()
        )


def _publish(publisher, execution, shards, *, kick_after=None,
             kick_event=None, epoch_delay=0.0):
    """Publisher thread body: state, each epoch run, end.  With
    ``kick_after=(epoch, event_count)``, force-disconnect every
    subscriber after that many events of that epoch (a *mid-epoch*
    network failure)."""
    publisher.write_state(execution.initial_state)
    for index, shard in enumerate(shards):
        if publisher.position > 0:
            publisher.write_epoch_mark()
        events = list(shard.trace)
        for position, event in enumerate(events):
            if kick_after == (index, position):
                if kick_event is not None:
                    kick_event.wait(5.0)
                time.sleep(0.1)  # let the client eat part of the epoch
                assert publisher.kick_subscribers() >= 1
            publisher.write_event(event)
        publisher.write_reports(shard.reports)
        if epoch_delay:
            time.sleep(epoch_delay)
    publisher.write_end()


def _remote_audit(app, publisher, execution, shards, reconnect=3,
                  **publish_kwargs):
    thread = threading.Thread(
        target=_publish, args=(publisher, execution, shards),
        kwargs=publish_kwargs,
    )
    thread.start()
    try:
        with RemoteBundleReader(publisher.endpoint, idle_timeout=20,
                                reconnect=reconnect) as reader:
            if publish_kwargs.get("kick_event") is not None:
                publish_kwargs["kick_event"].set()
            result = Auditor(app, AuditConfig()).audit_epochs(
                reader.epochs(), reader.initial_state
            )
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    return result


def _assert_equivalent(reference, remote):
    assert remote.accepted == reference.accepted, (
        remote.reason, remote.detail)
    assert remote.reason == reference.reason
    assert remote.detail == reference.detail
    assert remote.produced == reference.produced
    for key in _DET_STATS:
        assert remote.stats.get(key) == reference.stats.get(key), key
    reference_shards = [{k: s[k] for k in _SUMMARY_KEYS}
                        for s in reference.stats.get("shards", [])]
    remote_shards = [{k: s[k] for k in _SUMMARY_KEYS}
                     for s in remote.stats.get("shards", [])]
    assert remote_shards == reference_shards


# -- bit-identical verdicts: socket vs file -----------------------------------


def test_remote_accept_equals_file(counter_app, epoch_execution,
                                   tmp_path):
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    assert reference.accepted, (reference.reason, reference.detail)
    with BundlePublisher() as publisher:
        remote = _remote_audit(counter_app, publisher, epoch_execution,
                               _shards(epoch_execution))
    _assert_equivalent(reference, remote)


def test_remote_reject_equals_file(counter_app, epoch_execution,
                                   tmp_path):
    """A tampered response rejects identically over both transports."""
    victim = sorted(epoch_execution.trace.request_ids())[5]
    tampered = tamper_response(epoch_execution.trace, victim, "forged!")
    reference = _file_audit(counter_app, epoch_execution, tmp_path,
                            trace=tampered)
    assert not reference.accepted
    with BundlePublisher() as publisher:
        remote = _remote_audit(counter_app, publisher, epoch_execution,
                               _shards(epoch_execution, trace=tampered))
    _assert_equivalent(reference, remote)


def test_mid_epoch_disconnect_resumes_bit_identical(
        counter_app, epoch_execution, tmp_path):
    """A forced disconnect halfway through epoch 1's events: the reader
    reconnects, the publisher replays the torn epoch from its spool,
    and the merged result is still bit-identical to the file path."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    shards = _shards(epoch_execution)
    cut = (1, len(list(shards[1].trace)) // 2)
    with BundlePublisher() as publisher:
        remote = _remote_audit(counter_app, publisher, epoch_execution,
                               shards, reconnect=5, kick_after=cut,
                               kick_event=threading.Event())
    _assert_equivalent(reference, remote)


def test_disconnect_without_retries_fails_loud(counter_app,
                                               epoch_execution):
    """With resume disabled the lost stream is an error, never a
    silently truncated (yet plausible-looking) verdict."""
    from repro.net import TransportError

    shards = _shards(epoch_execution)
    cut = (1, len(list(shards[1].trace)) // 2)
    kick_event = threading.Event()
    with BundlePublisher() as publisher:
        thread = threading.Thread(
            target=_publish, args=(publisher, epoch_execution, shards),
            kwargs={"kick_after": cut, "kick_event": kick_event},
        )
        thread.start()
        try:
            with RemoteBundleReader(publisher.endpoint, idle_timeout=20,
                                    reconnect=0) as reader:
                kick_event.set()
                with pytest.raises(TransportError, match="lost"):
                    for _ in reader.epochs():
                        pass
        finally:
            thread.join(timeout=30)


def test_heartbeat_keeps_early_auditor_alive(counter_app,
                                             epoch_execution):
    """An auditor attached before the recorder has anything to publish
    (a long recording run) must not idle out: heartbeats prove the
    stream is alive until the records arrive."""
    shards = _shards(epoch_execution)
    with BundlePublisher(heartbeat_interval=0.1) as publisher:

        def late_publish():
            time.sleep(1.0)  # "still recording", well past idle_timeout
            _publish(publisher, epoch_execution, shards)

        thread = threading.Thread(target=late_publish)
        thread.start()
        try:
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=0.4) as reader:
                slices = list(reader.epochs())
        finally:
            thread.join(timeout=30)
    assert [s.index for s in slices] == list(range(len(shards)))


def test_slow_audit_does_not_trip_idle_timeout(counter_app,
                                               epoch_execution):
    """The idle timeout bounds the wait *for a frame*, not the
    consumer's pace: an audit slower than ``idle_timeout`` must still
    see every epoch already buffered on the socket."""
    shards = _shards(epoch_execution)
    with BundlePublisher() as publisher:
        _publish(publisher, epoch_execution, shards)  # all buffered
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=0.3) as reader:
            consumed = 0
            for _ in reader.epochs():
                time.sleep(0.45)  # "auditing" longer than idle_timeout
                consumed += 1
    assert consumed == len(shards)


def test_stalled_publisher_yields_torn_slice_like_file(
        counter_app, epoch_execution):
    """A publisher that goes quiet mid-epoch (at a frame boundary, so
    it looks idle, not truncated) must not produce a silently shortened
    clean stream: like the file reader, the torn trailing slice is
    yielded, and auditing it fails loudly instead of ACCEPTing a
    prefix."""
    shards = _shards(epoch_execution)
    # heartbeat disabled: this test needs the stream to look genuinely
    # dead, not merely quiet.
    with BundlePublisher(heartbeat_interval=None) as publisher:
        publisher.write_state(epoch_execution.initial_state)
        publisher.write_epoch(shards[0].trace, shards[0].reports)
        publisher.write_epoch_mark()
        events = list(shards[1].trace)
        for event in events[: len(events) // 2]:
            publisher.write_event(event)
        # ... and then nothing: no kick, no end, just silence.
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=0.4) as reader:
            slices = list(reader.epochs())
    assert [s.index for s in slices] == [0, 1]
    assert len(slices[1].trace) == len(events) // 2  # visibly torn
    result = Auditor(counter_app, AuditConfig()).audit_epochs(
        slices, epoch_execution.initial_state)
    assert not result.accepted  # truncation is loud, never ACCEPTED


def test_epoch_workers_session_over_socket(counter_app,
                                           epoch_execution, tmp_path,
                                           local_pool):
    """A session handed a pool needs zero changes to run over the
    network: same slices in, bit-identical result out."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    shards = _shards(epoch_execution)
    with BundlePublisher() as publisher:
        thread = threading.Thread(
            target=_publish, args=(publisher, epoch_execution, shards))
        thread.start()
        try:
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as reader:
                remote = Auditor(counter_app, AuditConfig()).audit_epochs(
                    reader.epochs(), reader.initial_state, local_pool)
        finally:
            thread.join(timeout=30)
    _assert_equivalent(reference, remote)


# -- fan-out ------------------------------------------------------------------


def test_two_auditors_one_publisher(counter_app, epoch_execution,
                                    tmp_path):
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    shards = _shards(epoch_execution)
    results = {}

    def audit(name):
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=20) as reader:
            results[name] = Auditor(counter_app, AuditConfig()) \
                .audit_epochs(reader.epochs(), reader.initial_state)

    with BundlePublisher() as publisher:
        auditors = [threading.Thread(target=audit, args=(name,))
                    for name in ("alpha", "beta")]
        for thread in auditors:
            thread.start()
        _publish(publisher, epoch_execution, shards, epoch_delay=0.01)
        publisher.wait_drained(timeout=20, min_subscribers=2)
        for thread in auditors:
            thread.join(timeout=30)
    _assert_equivalent(reference, results["alpha"])
    _assert_equivalent(reference, results["beta"])


def test_late_connect_replays_whole_stream(counter_app,
                                           epoch_execution, tmp_path):
    """An auditor attaching after the stream ended still gets every
    epoch from the spool."""
    reference = _file_audit(counter_app, epoch_execution, tmp_path)
    with BundlePublisher() as publisher:
        _publish(publisher, epoch_execution, _shards(epoch_execution))
        assert publisher.ended
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=10) as reader:
            remote = Auditor(counter_app, AuditConfig()).audit_epochs(
                reader.epochs(), reader.initial_state
            )
    _assert_equivalent(reference, remote)


def test_close_without_end_never_reads_as_drained(epoch_execution):
    """wait_drained means "an auditor got the complete stream"; an
    aborted run (close with no end record) must not count."""
    publisher = BundlePublisher(heartbeat_interval=None)
    reader = RemoteBundleReader(publisher.endpoint, idle_timeout=2,
                                reconnect=0)
    try:
        publisher.write_state(epoch_execution.initial_state)
        publisher.close()  # aborted: no write_end
        assert not publisher.wait_drained(timeout=0.3)
    finally:
        reader.close()


def test_ipv6_endpoint_round_trips(epoch_execution):
    """publisher.endpoint is always in the form parse_endpoint (and
    RemoteBundleReader) accept, including bracketed IPv6."""
    from repro.net import parse_endpoint

    with BundlePublisher("[::1]:0", heartbeat_interval=None) as publisher:
        assert publisher.endpoint.startswith("[::1]:")
        assert parse_endpoint(publisher.endpoint) == ("::1",
                                                      publisher.port)
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=5) as reader:
            assert reader.header["format"] == "ssco-jsonl"


def test_evicted_epoch_refused(counter_app, epoch_execution):
    """A ring spool evicts old epochs; a from-scratch subscription is
    refused with a clear error instead of a silently gappy stream."""
    shards = _shards(epoch_execution)
    assert len(shards) >= 3
    with BundlePublisher(spool_epochs=1) as publisher:
        _publish(publisher, epoch_execution, shards)
        with pytest.raises(ProtocolError, match="evicted"):
            RemoteBundleReader(publisher.endpoint, idle_timeout=5)


# -- backpressure -------------------------------------------------------------


def _bulk_records(publisher, epochs=8, events_per_epoch=2,
                  body_bytes=200_000):
    """Raw record stream with deliberately fat frames (no audit)."""
    for epoch in range(epochs):
        if epoch:
            publisher.write_epoch_mark()
        for position in range(events_per_epoch):
            rid = f"r{epoch}_{position}"
            publisher.write_event(Event.response(
                Response(rid, "x" * body_bytes, 200, None), 0.0,
            ))
    publisher.write_end()


def test_slow_consumer_backpressure_blocks_publisher(counter_app):
    """With ``stall_timeout=None`` a lagging consumer slows the
    *publisher* down (bounded queue + blocking put): publisher memory
    stays bounded instead of buffering the whole stream."""
    epochs, delay = 8, 0.12
    # Small socket buffers: without them the loopback kernel would
    # sponge up the whole stream and no backpressure would be visible.
    with BundlePublisher(max_lag=2, stall_timeout=None,
                         sndbuf=32768) as publisher:
        consumed = []

        def consume():
            with RemoteBundleReader(publisher.endpoint, idle_timeout=30,
                                    rcvbuf=32768) as reader:
                for epoch_slice in reader.epochs():
                    time.sleep(delay)  # a deliberately slow auditor
                    consumed.append(epoch_slice.index)

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.3)  # let it attach before the burst
        started = time.monotonic()
        _bulk_records(publisher, epochs=epochs)
        publish_seconds = time.monotonic() - started
        consumer.join(timeout=30)
    assert consumed == list(range(epochs))
    # ~3.2 MB of frames against a 2-frame queue + socket buffers: the
    # writer must have spent most of the consumer's sleep time blocked.
    assert publish_seconds > 0.3, publish_seconds


def test_lagging_consumer_dropped_then_resumes(counter_app):
    """With a finite ``stall_timeout`` the laggard is dropped (the
    recorder never blocks indefinitely) — and its reader transparently
    reconnects and resumes from the spool."""
    epochs = 6
    with BundlePublisher(max_lag=2, stall_timeout=0.1,
                         sndbuf=32768) as publisher:
        consumed = []

        def consume():
            with RemoteBundleReader(publisher.endpoint, idle_timeout=30,
                                    reconnect=10, reconnect_delay=0.05,
                                    rcvbuf=32768) as reader:
                for epoch_slice in reader.epochs():
                    if not consumed:
                        time.sleep(1.0)  # stall long enough to be kicked
                    consumed.append(epoch_slice.index)

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.3)
        started = time.monotonic()
        _bulk_records(publisher, epochs=epochs)
        publish_seconds = time.monotonic() - started
        consumer.join(timeout=30)
    # The drop kept the publisher fast...
    assert publish_seconds < 0.9, publish_seconds
    # ...and the resume still delivered every epoch exactly once.
    assert consumed == list(range(epochs))
