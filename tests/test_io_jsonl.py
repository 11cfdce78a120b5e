"""The epoch-segmented JSONL bundle (repro.io): the one layout, its
writer, its streaming reader and what the reader refuses."""

from __future__ import annotations

import json
import time
import threading

import pytest

from repro.io import (
    BundleReader,
    BundleWriter,
    save_audit_bundle_segmented,
    state_to_json,
)
from repro.core import Auditor, ssco_audit
from repro.server import Executor, RandomScheduler
from repro.server.nondet import NondetSource
from tests.conftest import counter_requests


@pytest.fixture
def epoch_run(counter_app):
    executor = Executor(
        counter_app,
        scheduler=RandomScheduler(9),
        max_concurrency=4,
        nondet=NondetSource(seed=9),
        epoch_size=8,
    )
    return executor.serve(counter_requests(24))


def _saved(tmp_path, run) -> str:
    path = str(tmp_path / "bundle.jsonl")
    epochs = save_audit_bundle_segmented(path, run.trace, run.reports,
                                         run.initial_state,
                                         run.epoch_marks)
    assert epochs == len(run.epoch_marks) + 1
    return path


def _read_all(path):
    with BundleReader(path) as reader:
        return reader.read_all()


def _assert_equal_bundles(run, loaded):
    trace, reports, state, marks = loaded
    assert trace.events == run.trace.events
    assert reports == run.reports
    assert state_to_json(state) == state_to_json(run.initial_state)
    return marks


def test_jsonl_roundtrip_preserves_everything(tmp_path, epoch_run):
    marks = _assert_equal_bundles(
        epoch_run, _read_all(_saved(tmp_path, epoch_run)))
    assert marks == epoch_run.epoch_marks


def test_jsonl_is_line_oriented(tmp_path, epoch_run):
    with open(_saved(tmp_path, epoch_run)) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert lines[0]["format"] == "ssco-jsonl"
    assert lines[0]["layout"] == "segmented"
    kinds = [line.get("kind") for line in lines[1:]]
    assert {"state", "event", "op_counts", "epoch_mark"} <= set(kinds)
    assert kinds[-1] == "end"
    # One record per event, in trace order.
    events = [line for line in lines if line.get("kind") == "event"]
    assert len(events) == len(epoch_run.trace)


def test_jsonl_bundle_audits_identically(tmp_path, counter_app,
                                         epoch_run):
    direct = ssco_audit(counter_app, epoch_run.trace, epoch_run.reports,
                        epoch_run.initial_state)
    with BundleReader.open(_saved(tmp_path, epoch_run)) as reader:
        loaded = Auditor(counter_app).audit_epochs(
            reader.epochs(), reader.initial_state)
    assert direct.accepted and loaded.accepted, (
        loaded.reason, loaded.detail)
    assert loaded.produced == direct.produced
    assert loaded.stats["shard_count"] == len(epoch_run.epoch_marks) + 1


#: What is not a segmented v2 bundle, and what the reader says it found.
FOREIGN = {
    "future version": (
        '{"format": "ssco-jsonl", "version": 99, "layout": "segmented"}\n',
        "version 99"),
    # v1 spelled every report record out; there is no second reader.
    "version 1": (
        '{"format": "ssco-jsonl", "version": 1, "layout": "segmented"}\n',
        r"has format version 1 \(expected 2\)"),
    "foreign": ('{"something": "else"}\n', "starts with"),
    "empty": ("", "is empty"),
    "legacy blob": (
        '{"version": 1, "trace": {"version": 1, "events": []}, "reports"',
        "legacy one-blob JSON"),
    "tail-reports layout": (
        '{"format": "ssco-jsonl", "version": 1}\n{"kind": "state"}\n',
        "tail-reports layout"),
}


def test_jsonl_rejects_bad_header(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    for what, (content, found) in FOREIGN.items():
        with open(path, "w") as fh:
            fh.write(content)
        for follow in (False, True):
            with pytest.raises(ValueError, match=found) as refused:
                BundleReader.open(path, follow=follow, poll_interval=0.01,
                                  idle_timeout=0.05)
            assert path in str(refused.value), what


def test_jsonl_requires_initial_state(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    with open(path, "w") as fh:
        fh.write('{"format": "ssco-jsonl", "version": 2, '
                 '"layout": "segmented"}\n')
    with pytest.raises(ValueError, match="no initial state"):
        _read_all(path)
    with BundleReader(path) as reader:
        with pytest.raises(ValueError, match="no initial state"):
            reader.initial_state


# -- streaming reader/writer objects ------------------------------------------


def test_segmented_epochs_match_partitioner(tmp_path, epoch_run):
    """BundleReader.epochs on a segmented bundle yields exactly the
    slices the quiescent-cut partitioner produces."""
    path = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(path, epoch_run.trace, epoch_run.reports,
                                epoch_run.initial_state,
                                epoch_run.epoch_marks)
    shards = epoch_run.epochs()
    assert len(shards) > 1
    with BundleReader(path) as reader:
        state = reader.read_initial_state()
        assert state_to_json(state) == state_to_json(
            epoch_run.initial_state)
        slices = list(reader.epochs())
    assert [s.index for s in slices] == [s.index for s in shards]
    for epoch_slice, shard in zip(slices, shards):
        assert epoch_slice.trace.events == shard.trace.events
        assert epoch_slice.reports == shard.reports
        assert epoch_slice.request_count == shard.request_count


def test_bundle_writer_reader_tail_live(tmp_path, epoch_run):
    """follow=True tails a bundle that is still being written: the
    reader hands each epoch over as soon as its run is closed, and the
    writer's end record terminates the stream."""
    path = str(tmp_path / "live.jsonl")
    shards = epoch_run.epochs()
    started = threading.Event()

    def write_slowly():
        with BundleWriter(path) as writer:
            writer.write_state(epoch_run.initial_state)
            started.set()
            for shard in shards:
                writer.write_epoch(shard.trace, shard.reports)
            writer.write_end()

    writer_thread = threading.Thread(target=write_slowly)
    writer_thread.start()
    try:
        started.wait(timeout=10)
        with BundleReader(path) as reader:
            slices = list(reader.epochs(follow=True, poll_interval=0.01,
                                        idle_timeout=10))
    finally:
        writer_thread.join(timeout=10)
    assert len(slices) == len(shards)
    for epoch_slice, shard in zip(slices, shards):
        assert epoch_slice.trace.events == shard.trace.events


def test_follow_gives_up_after_idle_timeout(tmp_path, epoch_run):
    """An unfinished bundle (no end record) stops a follow reader after
    idle_timeout seconds without new data."""
    path = str(tmp_path / "unfinished.jsonl")
    shards = epoch_run.epochs()
    writer = BundleWriter(path)
    writer.write_state(epoch_run.initial_state)
    writer.write_epoch(shards[0].trace, shards[0].reports)
    writer.write_epoch_mark()  # closes epoch 0; epoch 1 never arrives
    writer.close()
    with BundleReader(path) as reader:
        slices = list(reader.epochs(follow=True, poll_interval=0.01,
                                    idle_timeout=0.1))
    assert len(slices) == 1


class _SlowAtEOF:
    """A file whose empty reads (the polling case) are slow — the I/O
    pattern that made an interval-accumulating idle counter drift."""

    def __init__(self, fh, delay):
        self._fh = fh
        self._delay = delay

    def readline(self):
        line = self._fh.readline()
        if not line:
            time.sleep(self._delay)
        return line

    def close(self):
        self._fh.close()


def test_follow_idle_timeout_measures_wall_clock(tmp_path, epoch_run):
    """Regression: ``idle += poll_interval`` assumed each poll cost
    exactly the sleep interval, so slow reads made ``idle_timeout``
    overshoot by the accumulated I/O time (20x here).  The deadline is
    now the real monotonic clock."""
    path = str(tmp_path / "unfinished.jsonl")
    shards = epoch_run.epochs()
    writer = BundleWriter(path)
    writer.write_state(epoch_run.initial_state)
    writer.write_epoch(shards[0].trace, shards[0].reports)
    writer.write_epoch_mark()  # epoch 1 never arrives: pure polling
    writer.close()
    with BundleReader(path) as reader:
        reader._fh = _SlowAtEOF(reader._fh, delay=0.05)
        started = time.monotonic()
        slices = list(reader.epochs(follow=True, poll_interval=0.01,
                                    idle_timeout=0.2))
        elapsed = time.monotonic() - started
    assert len(slices) == 1
    # With the accumulator, giving up took ~20 polls x (50ms read +
    # 10ms sleep) = ~1.2s; the real-clock deadline stops near 0.2s.
    assert elapsed < 0.8, elapsed


def test_follow_slow_consumer_gets_fresh_idle_budget(tmp_path,
                                                     epoch_run):
    """Time the consumer spends auditing between yields must not count
    as stream idleness: after a slow epoch, the reader polls a fresh
    ``idle_timeout`` instead of giving up on resume."""
    path = str(tmp_path / "live.jsonl")
    shards = epoch_run.epochs()
    assert len(shards) >= 2
    writer = BundleWriter(path)
    writer.write_state(epoch_run.initial_state)
    writer.write_epoch(shards[0].trace, shards[0].reports)
    writer.write_epoch_mark()  # closes epoch 0

    def late_writer():
        # Epoch 1 lands *after* the consumer's slow audit resumed.
        time.sleep(0.6)
        writer.write_epoch(shards[1].trace, shards[1].reports)
        writer.write_end()
        writer.close()

    thread = threading.Thread(target=late_writer)
    thread.start()
    slices = []
    with BundleReader(path) as reader:
        for epoch_slice in reader.epochs(follow=True, poll_interval=0.01,
                                         idle_timeout=0.3):
            slices.append(epoch_slice.index)
            if len(slices) == 1:
                time.sleep(0.5)  # "auditing" epoch 0, > idle_timeout
    thread.join()
    # The buggy wall-clock deadline expired during the 0.5s audit and
    # dropped epoch 1; a per-resume fresh budget sees it arrive.
    assert slices == [0, 1]


def test_reader_tolerates_torn_line_in_follow(tmp_path, epoch_run):
    """A half-written final line is invisible to a follow reader (it
    waits) and a hard error on a supposedly finished file."""
    path = str(tmp_path / "torn.jsonl")
    shards = epoch_run.epochs()
    with BundleWriter(path) as writer:
        writer.write_state(epoch_run.initial_state)
        writer.write_epoch(shards[0].trace, shards[0].reports)
        writer.write_epoch_mark()
    with open(path, "a") as fh:
        fh.write('{"kind": "event", "eve')  # torn mid-record
    with BundleReader(path) as reader:
        slices = list(reader.epochs(follow=True, poll_interval=0.01,
                                    idle_timeout=0.1))
        assert len(slices) == 1
    with BundleReader(path) as reader:
        with pytest.raises(ValueError):
            reader.read_all()


def test_final_record_without_trailing_newline_is_kept(tmp_path,
                                                       epoch_run):
    """A writer that dies between writing its last record and the
    newline leaves complete JSON with no trailing '\\n'; the record —
    a report record, or the ``end`` itself — must load, not silently
    vanish."""
    path = str(tmp_path / "bundle.jsonl")
    for ended in (False, True):
        with BundleWriter(path) as writer:
            writer.write_state(epoch_run.initial_state)
            writer.write_epoch(epoch_run.trace, epoch_run.reports)
            if ended:
                writer.write_end()
        with open(path) as fh:
            content = fh.read()
        assert content.endswith("\n")
        with open(path, "w") as fh:
            fh.write(content[:-1])  # drop only the final newline
        _assert_equal_bundles(epoch_run, _read_all(path))


def test_reader_open_waits_for_late_header(tmp_path, epoch_run):
    """BundleReader.open(follow=True) tolerates the startup race: the
    auditor may be launched before the writer's header is flushed."""
    path = str(tmp_path / "late.jsonl")
    shards = epoch_run.epochs()

    def write_later():
        time.sleep(0.2)
        with BundleWriter(path) as writer:
            writer.write_state(epoch_run.initial_state)
            writer.write_epoch(shards[0].trace, shards[0].reports)
            writer.write_end()

    writer_thread = threading.Thread(target=write_later)
    writer_thread.start()
    try:
        reader = BundleReader.open(path, follow=True, poll_interval=0.01,
                                   idle_timeout=10)
        with reader:
            slices = list(reader.epochs(follow=True, poll_interval=0.01,
                                        idle_timeout=10))
    finally:
        writer_thread.join(timeout=10)
    assert len(slices) == 1


def test_reader_open_fails_fast_on_wrong_complete_header(tmp_path):
    path = str(tmp_path / "foreign.jsonl")
    with open(path, "w") as fh:
        fh.write('{"something": "else"}\n')
    with pytest.raises(ValueError,
                       match="not a segmented ssco-jsonl bundle"):
        BundleReader.open(path, follow=True, idle_timeout=10)


def test_reader_open_times_out_on_missing_file(tmp_path):
    path = str(tmp_path / "never.jsonl")
    with pytest.raises(OSError):
        BundleReader.open(path, follow=True, poll_interval=0.01,
                          idle_timeout=0.05)


def test_batch_savers_do_not_autoflush(tmp_path, epoch_run):
    # Behavioral contract: the file still round-trips exactly.
    _assert_equal_bundles(epoch_run, _read_all(_saved(tmp_path, epoch_run)))
    # And the live writer keeps flushing by default.
    assert BundleWriter(str(tmp_path / "live.jsonl")).autoflush
