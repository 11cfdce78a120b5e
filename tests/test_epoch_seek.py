"""Random access into segmented bundles: the byte-offset epoch index
and ``BundleReader.seek_epoch``."""

from __future__ import annotations

import pytest

from repro.common.errors import MalformedBundle
from repro.io import BundleReader, save_audit_bundle_segmented
from repro.server import Executor

from tests.conftest import counter_requests


@pytest.fixture
def segmented_bundle(tmp_path, counter_app):
    run = Executor(counter_app, max_concurrency=1,
                   epoch_size=6).serve(counter_requests())
    path = str(tmp_path / "bundle.jsonl")
    save_audit_bundle_segmented(path, run.trace, run.reports,
                                run.initial_state, run.epoch_marks)
    return path, run


def slice_summary(epoch_slice):
    return (epoch_slice.index, epoch_slice.trace.request_ids())


def test_epoch_index_covers_every_mark(segmented_bundle):
    path, run = segmented_bundle
    with BundleReader(path) as reader:
        index = reader.epoch_index()
        sequential = list(reader.epochs())
    assert index.complete
    assert index.marks == run.epoch_marks
    assert index.epoch_count == len(sequential)
    # Offsets are strictly increasing file positions.
    assert index.offsets == sorted(set(index.offsets))


def test_seek_matches_sequential_read(segmented_bundle):
    path, _ = segmented_bundle
    with BundleReader(path) as reader:
        sequential = [slice_summary(s) for s in reader.epochs()]
    assert len(sequential) > 2
    for start in range(len(sequential)):
        with BundleReader(path) as reader:
            reader.seek_epoch(start)
            seeked = [slice_summary(s) for s in reader.epochs()]
        assert seeked == sequential[start:], start


def test_initial_state_available_after_seek(segmented_bundle):
    path, run = segmented_bundle
    with BundleReader(path) as reader:
        reader.seek_epoch(2)
        list(reader.epochs())
        state = reader.initial_state
    assert state is not None
    assert state.kv == run.initial_state.kv


def test_seek_out_of_range(segmented_bundle):
    path, _ = segmented_bundle
    with BundleReader(path) as reader:
        count = reader.epoch_index().epoch_count
        with pytest.raises(ValueError, match="out of range"):
            reader.seek_epoch(count)
        with pytest.raises(ValueError, match="out of range"):
            reader.seek_epoch(-1)


def test_seek_rejects_default_layout(tmp_path):
    """A file in the old default (tail-reports) layout has no
    self-contained epoch runs to seek to: the reader refuses it at
    open, before any seek."""
    path = tmp_path / "flat.jsonl"
    path.write_text('{"format": "ssco-jsonl", "version": 1}\n'
                    '{"kind": "epoch_mark", "events": 12}\n')
    with pytest.raises(ValueError, match="not a segmented"):
        BundleReader(str(path))


def test_torn_tail_scans_as_incomplete(segmented_bundle, tmp_path):
    path, _ = segmented_bundle
    with open(path, "rb") as fh:
        data = fh.read()
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[: int(len(data) * 0.6)])
    with BundleReader(str(torn)) as reader:
        index = reader.epoch_index()
        assert not index.complete
        assert index.epoch_count >= 1
        # Every fully-indexed epoch run (all but the last, which owns
        # the torn byte range) still seeks and reads cleanly.
        reader.seek_epoch(0)
        first = next(reader.epochs())
        assert first.index == 0
        assert first.trace.request_ids()


@pytest.mark.parametrize("kind, forged", [
    ("state", '{"kind": "state" oops}'),
    ("state", '{"kind": "state"}'),
    ("epoch_mark", '{"kind": "epoch_mark" oops}'),
], ids=["state_not_json", "state_without_state", "mark_not_json"])
def test_seek_refuses_a_record_that_does_not_decode(
        segmented_bundle, tmp_path, kind, forged):
    """A seek decodes the state record and the marks itself; one that
    does not decode is a MalformedBundle there as on every other road."""
    path, _ = segmented_bundle
    with open(path) as fh:
        lines = fh.readlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith(f'{{"kind": "{kind}"'))
    lines[at] = forged + "\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    with BundleReader(str(bad)) as reader:
        with pytest.raises(MalformedBundle):
            reader.seek_epoch(0)
    with BundleReader(str(bad)) as reader:
        with pytest.raises(MalformedBundle):
            reader.read_initial_state()
            list(reader.epochs())
