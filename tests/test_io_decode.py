"""Record decode: every transport builds the same objects, once.

The decoders of :mod:`repro.io` turn JSON records straight into the
``Trace`` / ``Reports`` the audit takes.  These tests pin what they must
keep doing while they are made cheap: the tagged value encoding
round-trips whatever a request parameter or an op's contents can hold
(including mappings whose keys are the tags themselves), the file
reader, the whole-bundle loader and the socket reader yield equal
slices through one accumulator, and malformed records raise what they
always raised.  The write side is held to the same standard:
the cheap ``_enc`` and the bound encoder produce what the plain ladder
and ``json.dumps`` produce.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.common.errors import MalformedBundle
from repro.io import (
    BundleReader,
    BundleWriter,
    EpochAccumulator,
)
from repro.net import BundlePublisher, RemoteBundleReader
from repro.objects.base import OpRecord, OpType
from repro.server.app import InitialState
from repro.server.reports import NondetRecord, Reports
from repro.sql.engine import Engine
from repro.trace.events import Event, ExternalRequest, Request, Response
from repro.trace.trace import Trace

# -- the value encoding --------------------------------------------------------

TAGS = ("t", "l", "d")

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(max_size=6),
)
keys = st.one_of(st.sampled_from(TAGS), st.text(max_size=3))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)


def typed(value):
    """``value`` with the type of every node spelled out: ``True == 1``
    and ``(1,) != [1]`` must both be visible to ``==``."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(key, typed(item)) for key, item in value.items()])
    return (type(value).__name__, value)


@settings(max_examples=300, deadline=None)
@given(values)
def test_tagged_values_round_trip(value):
    wire = json.loads(json.dumps(repro_io._enc(value)))
    assert typed(repro_io._dec(wire)) == typed(value)


@pytest.mark.parametrize("value", [
    {"t": "x"}, {"l": 1}, {"d": None}, {"t": [1, 2]}, {"d": {"d": {}}},
    {"t": {"t": ("t",)}}, {"l": {"l": []}, "t": ()}, {"t": 1, "l": 2, "d": 3},
    ({"t": ()},), [{"d": []}],
])
def test_mappings_keyed_by_the_tags_themselves(value):
    wire = json.loads(json.dumps(repro_io._enc(value)))
    assert typed(repro_io._dec(wire)) == typed(value)


def test_untagged_dicts_pass_through():
    """Not produced by ``_enc``, but what a decoder is handed is not the
    decoder's to choose: only a one-key dict under a tag is a container."""
    for raw in ({}, {"x": 1}, {"t": [1], "l": [2]}, {"T": [1]}):
        assert repro_io._dec(raw) == raw


# -- the write side: same bytes, fewer calls -------------------------------------


def reference_enc(value):
    """``_enc`` as it was before it learned to skip the per-item call:
    the plain ladder, kept here as the reference."""
    if isinstance(value, tuple):
        return {"t": [reference_enc(item) for item in value]}
    if isinstance(value, list):
        return {"l": [reference_enc(item) for item in value]}
    if isinstance(value, dict):
        return {"d": {str(k): reference_enc(v) for k, v in value.items()}}
    return value


class _Pair(tuple):
    pass


class _Name(str):
    pass


class _Params(dict):
    pass


#: What the exact-type tests must not mistake for a plain scalar or
#: container: subclasses, and keys that are not strings.
odd_values = st.recursive(
    st.one_of(scalars, st.text(max_size=3).map(_Name)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(_Pair),
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.one_of(keys, st.integers(), st.booleans(), st.none()),
            inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3).map(_Params),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(values, odd_values))
def test_enc_matches_the_plain_ladder(value):
    got, expected = repro_io._enc(value), reference_enc(value)
    assert typed(got) == typed(expected)
    assert json.dumps(got) == json.dumps(expected)


@pytest.mark.parametrize("seed", range(3))
def test_records_are_encoded_as_json_dumps_would(seed):
    records = [repro_io.state_record(_state())]
    for trace, reports in _random_epochs(seed):
        records += [repro_io.event_record(event) for event in trace]
        records += list(repro_io.iter_report_records(reports))
    records.append({"kind": "event", "text": "caf\u00e9 \u2028 \"q\" \\",
                    "numbers": [1e300, -0.0, 2**70]})
    assert {record["kind"] for record in records} == {
        "state", "event", "group", "op_log", "op_counts", "nondet"}
    for record in records:
        assert repro_io._encode_record(record) == json.dumps(record)


# -- the report records round-trip ---------------------------------------------

#: Contents rows share, across rows and across objects (cut to each
#: row's optype): among them values a dict key would merge (``1``,
#: ``1.0``, ``True``; ``0.0``, ``-0.0``), which must come back as they
#: went.
SHARED_CONTENTS = [(1, 1.0), (1.0, True), (True, 1), (0.0, -0.0),
                   (-0.0, 0.0), (("SELECT 1", "SELECT 2"), True),
                   ("k", ("__phparray__", (("a", 1), ("b", (2, 2.0)))))]

#: Log lengths: none, one row, and either side of the 1,000-row chunk.
LOG_SIZES = (0, 1, 7, 999, 1000, 1001)


@st.composite
def report_sets(draw):
    import random as _random

    rids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1,
                         max_size=6, unique=True))
    contents = SHARED_CONTENTS + draw(st.lists(
        st.lists(values, min_size=2, max_size=2), max_size=4))
    rng = _random.Random(draw(st.integers(0, 2 ** 32)))
    reports = Reports()
    for obj in draw(st.lists(st.text(max_size=5), max_size=3, unique=True)):
        reports.op_logs[obj] = [
            OpRecord(rng.choice(rids), rng.randrange(1, 9), optype,
                     shaped(optype, rng.choice(contents)))
            for optype in (rng.choice(list(OpType)) for _ in range(
                draw(st.sampled_from(LOG_SIZES))))]
    for rid in draw(st.lists(st.sampled_from(rids), unique=True)):
        reports.op_counts[rid] = draw(st.integers(0, 9))
    for tag in draw(st.lists(st.text(max_size=3), max_size=3, unique=True)):
        reports.groups[tag] = draw(st.lists(st.sampled_from(rids),
                                            max_size=4))
    for rid in draw(st.lists(st.sampled_from(rids), unique=True)):
        reports.nondet[rid] = [
            NondetRecord(draw(st.sampled_from(("time", "rand", "uniqid"))),
                         draw(st.lists(values, max_size=2).map(tuple)),
                         draw(values))
            for _ in range(draw(st.integers(0, 3)))]
    return reports


def typed_reports(reports: Reports):
    return (
        {obj: [(r.rid, r.opnum, r.optype, typed(r.opcontents)) for r in log]
         for obj, log in reports.op_logs.items()},
        {rid: [(r.func, typed(r.args), typed(r.value)) for r in records]
         for rid, records in reports.nondet.items()},
        reports.groups, typed(reports.op_counts))


@settings(max_examples=60, deadline=None)
@given(report_sets())
def test_report_records_round_trip(reports):
    """Whatever ``Reports`` hold — unicode rids, nested contents shared
    across rows and objects, logs either side of a chunk, empty logs —
    their records, through JSON, feed back equal ``Reports``, type for
    type; and rows of one line that share contents share one decoded
    tuple."""
    accumulator = EpochAccumulator()
    for record in repro_io.iter_report_records(reports):
        record = json.loads(json.dumps(record))
        assert accumulator.feed(record) is None
        if record["kind"] == "op_log":
            assert len(record["rows"]) <= 4 * 1000
            assert len(record["values"]) == len(set(map(
                json.dumps, record["values"])))
    assert accumulator.reports == reports
    assert typed_reports(accumulator.reports) == typed_reports(reports)
    for log in accumulator.reports.op_logs.values():
        for start in range(0, len(log), 1000):
            chunk = log[start:start + 1000]
            shared = {}
            for record in chunk:
                key = json.dumps(typed(record.opcontents))
                assert shared.setdefault(key, record.opcontents) is (
                    record.opcontents)


# -- one accumulator under every reader ----------------------------------------


#: Figure 12's op contents, which the decoder holds a row to: an arity
#: per optype, and a KV op's key is a string.
ARITY = {OpType.REGISTER_READ: 0, OpType.REGISTER_WRITE: 1,
         OpType.KV_GET: 1, OpType.KV_SET: 2, OpType.DB_OP: 2}


def shaped(optype: OpType, items) -> tuple:
    """``items`` cut to the contents ``optype`` takes."""
    contents = tuple(items[:ARITY[optype]])
    if optype in (OpType.KV_GET, OpType.KV_SET):
        contents = (str(contents[0]),) + contents[1:]
    return contents


def _random_value(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice((None, True, 0, 1, -7, 2.5, "", "t", "x y"))
    kind = rng.randrange(3)
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 0:
        return tuple(items)
    if kind == 1:
        return items
    return {rng.choice((*TAGS, "k")): item for item in items}


def _random_epochs(seed: int, epochs: int = 3):
    """Hand-built epoch slices that use everything the encoding has:
    parameters named like the tags, containers nested in op contents
    and nondet values, EXTERNAL events."""
    rng = random.Random(seed)
    out = []
    serial = 0
    for _ in range(epochs):
        trace, reports = Trace(), Reports()
        for _ in range(rng.randint(1, 5)):
            serial += 1
            rid = f"r{serial:03d}"
            params = {name: _random_value(rng, 2)
                      for name in rng.sample((*TAGS, "q", "page"), 3)}
            trace.append(Event.request(Request(
                rid, "s.php", get=params,
                post={"d": {"t": [1, (2,)]}} if rng.random() < 0.5 else {},
                cookies={"l": "sess"}), float(serial)))
            for n in range(rng.randrange(3)):
                trace.append(Event.external(ExternalRequest(
                    rid, "email", (f"to{n}", _random_value(rng, 2))),
                    serial + 0.25))
            trace.append(Event.response(Response(
                rid, rng.choice(("body", "", None)), 200,
                None if rng.random() < 0.8 else "reset"), serial + 0.5))
            count = rng.randrange(4)
            for opnum in range(1, count + 1):
                optype = rng.choice(list(OpType))
                reports.op_logs.setdefault(
                    rng.choice(("kv:apc", "db:main", "reg:t")), []
                ).append(OpRecord(rid, opnum, optype, shaped(optype, [
                    _random_value(rng) for _ in range(2)])))
            reports.op_counts[rid] = count
            reports.groups.setdefault(rng.choice(TAGS), []).append(rid)
            if rng.random() < 0.6:
                reports.nondet[rid] = [
                    NondetRecord("rand", (_random_value(rng, 2),),
                                 _random_value(rng))
                    for _ in range(rng.randint(1, 3))]
        out.append((trace, reports))
    return out


def _state() -> InitialState:
    return InitialState(Engine(), {"k": ("t", {"d": [1]})},
                        {"reg:t": {"l": (1, 2)}})


def _slices(epochs):
    return [(s.index, typed_events(s.trace), s.reports) for s in epochs]


def typed_events(trace: Trace):
    return [(e.kind, e.rid, e.time, type(e.payload).__name__,
             typed(vars(e.payload))) for e in trace]


@pytest.mark.parametrize("seed", range(5))
def test_every_reader_yields_the_same_slices(tmp_path, monkeypatch, seed):
    epochs = _random_epochs(seed)
    expected = [(index, typed_events(trace), reports)
                for index, (trace, reports) in enumerate(epochs)]
    path = str(tmp_path / "bundle.jsonl")
    with BundleWriter(path) as writer:
        writer.write_state(_state())
        for trace, reports in epochs:
            writer.write_epoch(trace, reports)
        writer.write_end()

    fed: list[str] = []
    feed = EpochAccumulator.feed

    def counting_feed(self, record):
        fed.append(record["kind"])
        return feed(self, record)

    monkeypatch.setattr(EpochAccumulator, "feed", counting_feed)

    with BundleReader(path) as reader:
        assert _slices(reader.epochs()) == expected
        assert typed(reader.initial_state.kv) == typed(_state().kv)
    from_file, fed[:] = list(fed), []

    with BundlePublisher("127.0.0.1:0", heartbeat_interval=None) as publisher:
        with open(path, "rb") as fh:
            for line in fh:
                kind = repro_io.record_kind(line)
                if kind is not None:
                    publisher.write_record_payload(line, kind=kind)
        with RemoteBundleReader(publisher.endpoint,
                                idle_timeout=20) as remote:
            assert _slices(remote.epochs()) == expected
            assert typed(remote.initial_state.registers) == typed(
                _state().registers)
    # The same records through the same method: nothing is decoded
    # beside the accumulator on either transport.
    assert fed == from_file and set(fed) >= {
        "state", "event", "op_log", "op_counts", "group", "epoch_mark"}
    fed[:] = []

    # The whole-bundle loader decodes to the concatenation of the
    # slices.
    whole_trace = Trace([e for trace, _ in epochs for e in trace])
    whole = Reports()
    for _, reports in epochs:
        for tag, rids in reports.groups.items():
            whole.groups.setdefault(tag, []).extend(rids)
        for obj, log in reports.op_logs.items():
            whole.op_logs.setdefault(obj, []).extend(log)
        whole.op_counts.update(reports.op_counts)
        whole.nondet.update(reports.nondet)
    with BundleReader(path) as reader:
        trace, reports, state, _ = reader.read_all()
    assert typed_events(trace) == typed_events(whole_trace)
    assert reports == whole
    assert [typed(r.opcontents) for log in reports.op_logs.values()
            for r in log] == [typed(r.opcontents)
                              for log in whole.op_logs.values()
                              for r in log]
    assert typed(state.kv) == typed(_state().kv)
    assert fed and "epoch_mark" not in fed  # read_all collects the marks


def test_the_state_record_is_decoded_once(tmp_path, monkeypatch):
    """Whichever way a reader is driven — ``read_initial_state()`` then
    ``epochs()`` (the CLI's order, and the benchmark's), ``epochs()``
    alone, ``seek_epoch()`` then ``epochs()`` — ``state_from_json`` runs
    once, every slice still comes out, and the state is there to ask
    for afterwards.  (Both readers decode it in the accumulator, which
    calls :mod:`repro.io`'s.)"""
    epochs = _random_epochs(0)
    path = str(tmp_path / "bundle.jsonl")
    with BundleWriter(path) as writer:
        writer.write_state(_state())
        for trace, reports in epochs:
            writer.write_epoch(trace, reports)
        writer.write_end()
    decoded = []

    def counting(data):
        decoded.append(data)
        return state_from_json(data)

    state_from_json = repro_io.state_from_json
    monkeypatch.setattr(repro_io, "state_from_json", counting)

    def drive(reader, first, start=0):
        decoded.clear()
        first(reader)
        indexes = [s.index for s in reader.epochs()]
        assert indexes == list(range(start, len(epochs))), first
        assert typed(reader.initial_state.kv) == typed(_state().kv)
        assert len(decoded) == 1, first

    for first, start in (
        (lambda reader: reader.read_initial_state(), 0),
        (lambda reader: reader.initial_state, 0),
        (lambda reader: None, 0),
        (lambda reader: reader.seek_epoch(0), 0),
        (lambda reader: reader.seek_epoch(2), 2),
    ):
        with BundleReader(path) as reader:
            drive(reader, first, start)
    with BundleReader(path) as reader:  # seeking back does not re-read it
        drive(reader, lambda reader: reader.seek_epoch(1), 1)
        reader.seek_epoch(0)
        assert len(list(reader.epochs())) == len(epochs)
        assert len(decoded) == 1

    for first in (lambda reader: reader.read_initial_state(),
                  lambda reader: None):
        with BundlePublisher("127.0.0.1:0",
                             heartbeat_interval=None) as publisher:
            publisher.write_state(_state())
            for trace, reports in epochs:
                publisher.write_epoch(trace, reports)
            publisher.write_end()
            with RemoteBundleReader(publisher.endpoint,
                                    idle_timeout=20) as remote:
                drive(remote, first)


# -- malformed records ---------------------------------------------------------


def _bundle_lines(tmp_path):
    path = str(tmp_path / "honest.jsonl")
    with BundleWriter(path) as writer:
        writer.write_state(_state())
        for trace, reports in _random_epochs(1, epochs=2):
            writer.write_epoch(trace, reports)
        writer.write_end()
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _with(records, kind, edit):
    out = []
    done = False
    for record in records:
        record = json.loads(json.dumps(record))
        if not done and record.get("kind") == kind:
            edit(record)
            done = True
        out.append(record)
    assert done, kind
    return out


def _point_row(record, optype_code, value):
    """Row 0 of an op-log record made ``optype_code`` over a new value."""
    record["rows"][2:4] = [optype_code, len(record["values"])]
    record["values"].append(value)


#: What is wrong -> (record kind, the edit, what the ValueError says).
MALFORMED = {
    "event kind": ("event", lambda r: r["event"].update(kind="PUSH"),
                   "'PUSH' is not a valid EventKind"),
    "event kind unhashable": (
        "event", lambda r: r["event"].update(kind=["REQUEST"]),
        "EventKind"),
    "optype": ("op_log", lambda r: r["rows"].__setitem__(2, 5),
               "optype index 5 is outside its table of 5"),
    "optype unhashable": (
        "op_log", lambda r: r["rows"].__setitem__(2, ["KvGet"]),
        r"optype index \['KvGet'\], not an integer"),
    "record kind": ("group", lambda r: r.update(kind="grupo"),
                    "unknown bundle record kind 'grupo'"),
    "opnum": ("op_log", lambda r: r["rows"].__setitem__(1, "1"),
              "opnum '1', not an integer"),
    "opnum null": ("op_log", lambda r: r["rows"].__setitem__(1, None),
                   "opnum None"),
    "op contents arity": ("op_log", lambda r: _point_row(r, 0, {"t": [1]}),
                          "an op-log row's contents do not fit its optype"),
    "KV key": ("op_log", lambda r: _point_row(r, 3, {"t": [[1], 2]}),
               r"KV key \[1\], not a string"),
    "negative index": ("op_log", lambda r: r["rows"].__setitem__(0, -1),
                       "rid index -1 is outside its table"),
    "ragged rows": ("nondet", lambda r: r["rows"].pop(),
                    "is not rows of 4"),
    "rid named twice": ("op_counts", lambda r: (
        r["rids"].append(r["rids"][0]), r["counts"].append(0)),
        "names a request twice"),
    "event script": ("event", lambda r: r["event"]["request"].update(
        script=["x"]), r"event script \['x'\], not a string"),
    "rid not a string": ("group", lambda r: r["rids"].append(["x"]),
                         r"group rid \['x'\], not a string"),
    "op count": ("op_counts", lambda r: r["counts"].__setitem__(0, 1.0),
                 "op count 1.0, not an integer"),
    "mark events": ("epoch_mark", lambda r: r.update(events="abc"),
                    "epoch_mark record has events 'abc'"),
    "mark events negative": ("epoch_mark", lambda r: r.update(events=-5),
                             "epoch_mark record has events -5"),
    "mark events missing": ("epoch_mark", lambda r: r.pop("events"),
                            "epoch_mark record has events None"),
    "end events": ("end", lambda r: r.update(events=2.0),
                   "end record has events 2.0"),
    "not an object": ("group", lambda r: r.clear(),
                      "is a JSON list, not an object"),
    # Fields that used to leak KeyError / TypeError / AttributeError.
    "event without rid": ("event",
                          lambda r: next(iter(
                              v for v in r["event"].values()
                              if isinstance(v, dict))).pop("rid"),
                          "KeyError: 'rid'"),
    "state columns": ("state", lambda r: r["state"].update(
        tables={"t": {"columns": 5, "types": {}, "rows": []}}),
        "TypeError: 'int' object is not iterable"),
    "op counts a list": ("op_counts", lambda r: r.update(counts=[1]),
                         r"op counts \[1\] do not match the rids"),
    "group rids": ("group", lambda r: r.update(rids=7), "TypeError"),
    "no kind": ("nondet", lambda r: r.pop("kind"), "KeyError: 'kind'"),
    # The state record is the verifier's trusted input: there is one.
    "second state": ("state", lambda r: None,
                     "state record after the first"),
}


@pytest.mark.parametrize("what", sorted(MALFORMED))
def test_malformed_records_raise_value_error(tmp_path, what):
    """On every road a record travels — the file's epochs (with the
    state asked for first, and not), the whole file, the bare
    accumulator a socket feeds — one type, ``MalformedBundle`` (a
    ``ValueError``), saying what it found."""
    kind, edit, says = MALFORMED[what]
    records = _with(_bundle_lines(tmp_path), kind, edit)
    if what == "not an object":
        records = [record or [1, 2] for record in records]
    if what == "second state":  # an emptied copy, mid-file
        forged = json.loads(json.dumps(records[1]))
        forged["state"].update(kv={}, registers={})
        records.insert(len(records) // 2, forged)
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)
    with BundleReader(path) as reader, pytest.raises(MalformedBundle,
                                                     match=says):
        list(reader.epochs())
    with BundleReader(path) as reader, pytest.raises(MalformedBundle,
                                                     match=says):
        reader.read_initial_state()
        list(reader.epochs())
    with BundleReader(path) as reader, pytest.raises(MalformedBundle,
                                                     match=says):
        reader.read_all()
    accumulator = EpochAccumulator()
    with pytest.raises(MalformedBundle, match=says):
        for record in records[1:]:
            if not repro_io.ends_stream(record):
                accumulator.feed(record)
    assert issubclass(MalformedBundle, ValueError)


# -- the record line parser ----------------------------------------------------

RECORD = '{"kind": "epoch_mark", "events": 3, "t": ["l", [1.5, null]]}'


@pytest.mark.parametrize("line", [
    RECORD + "\n",
    RECORD,  # a finished file's last record, without its newline
    # leading whitespace
    "  " + RECORD + "\n", "\t" + RECORD + "\n", "\n",
    # CRLF, and whitespace before the newline
    RECORD + "\r\n", RECORD + " \n", RECORD + "\n\n",
    # trailing junk
    RECORD + "x\n", RECORD + "{}\n", RECORD + "\n}",
    # torn lines
    RECORD[:25], RECORD[:-1] + "\n", '{"kind": "epo', "",
])
def test_a_record_line_decodes_or_fails_as_json_loads_does(line):
    """The scanner's shortcut decodes what ``json.loads`` decodes, to the
    same value, and fails where it fails, with the same message."""
    try:
        expected = json.loads(line)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            repro_io._parse_record(line)
        assert str(raised.value) == str(exc)
    else:
        assert repro_io._parse_record(line) == expected


def test_a_torn_last_record_is_a_malformed_bundle(tmp_path):
    """A file that ends mid-record does not decode on any road, and says
    what ``json`` said."""
    records = _bundle_lines(tmp_path)
    path = str(tmp_path / "torn.jsonl")
    torn = json.dumps(records[-2])[:-7]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records[:-2])
        fh.write(torn)
    try:
        json.loads(torn)
    except ValueError as exc:
        says = str(exc)
    with BundleReader(path) as reader, pytest.raises(MalformedBundle) as raised:
        list(reader.epochs())
    assert says in str(raised.value)
