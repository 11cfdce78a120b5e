"""Serialization of audit inputs (traces, reports, initial state).

In the paper's deployment the collector and the executor ship the trace
and reports to the verifier, and the verifier keeps object state between
audits (§4.1, §5.3).  This module gives those artifacts their one
on-disk encoding, the **segmented JSONL bundle**: one record per line —
a header, the initial state, then each epoch as a self-contained run
(its events, then its report records, op logs in bounded chunks), every
run after the first opened by an ``epoch_mark`` at the executor's
quiescent cut, and an ``end`` record closing a finished bundle.

* :class:`BundleWriter` appends records as a server produces them;
  :func:`save_audit_bundle_segmented` writes a finished execution.
* :class:`BundleReader` parses them.  :meth:`BundleReader.epochs`
  yields one epoch slice ``(trace, reports)`` at a time — the road every
  audit of a file takes, holding one epoch in memory — and with
  ``follow=True`` tails a bundle that is still being written (audit
  epoch N while the server records epoch N+1).
  :meth:`BundleReader.read_all` loads the whole file for the one
  consumer that needs it in one piece, the naive baseline.
* The record builders (:func:`event_record`, ...) and the
  :class:`EpochAccumulator` are shared with :mod:`repro.net`, which
  frames the same dicts over a socket: one encoding, two transports.
* A bundle is the executor's untrusted word.  Whatever in it does not
  decode — a file that is not a bundle, a line that is not a record, a
  missing or mistyped field, a second ``state`` record — raises one
  type, :class:`~repro.common.errors.MalformedBundle` (a
  ``ValueError``), from here and only from here.

Weblang values inside op logs / registers / KV are already *frozen*
(hashable tuples, see :func:`repro.lang.values.freeze_value`); JSON
round-tripping preserves them exactly via a small tagged encoding
(JSON has no tuples or int-keyed maps).

Format version 2 (a reader refuses any other) writes a report record as
positional rows over tables its own line carries, so every line stands
alone: ``op_log`` is ``obj``, a ``rids`` table, ``values`` (the line's
distinct encoded contents) and ``rows`` ``[rid_i, opnum, optype_code,
value_i, ...]`` (at most 1,000 rows; the code is a position in
:class:`~repro.objects.base.OpType`); ``nondet`` is one line an epoch,
``rids``, ``funcs`` and ``rows`` ``[rid_i, func_i, args, value, ...]``;
``op_counts`` is parallel ``rids`` / ``counts``; ``group`` is a ``tag``
and its ``rids``.  A rid table holds strings, each once; an index is an
exact ``int`` inside its table.
"""

from __future__ import annotations

import io as _stdio
import json
import marshal
from itertools import repeat
from json.scanner import make_scanner
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from repro.common.clock import Deadline
from repro.common.errors import MalformedBundle
from repro.objects.base import OpRecord, OpType
from repro.server.app import InitialState
from repro.server.reports import EpochSlice, NondetRecord, Reports
from repro.sql.engine import Engine, Table
from repro.trace.events import (
    Event,
    EventKind,
    ExternalRequest,
    Request,
    Response,
)
from repro.trace.trace import Trace

FORMAT_VERSION = 2

#: What turning an untrusted JSON value into audit inputs can raise: a
#: field that is missing, mistyped, unhashable or out of range.  Caught
#: here, where records are decoded, and nowhere else — callers see
#: :class:`~repro.common.errors.MalformedBundle`.
_DECODE_FAULTS = (ValueError, LookupError, TypeError, AttributeError,
                  RecursionError)

# Bound once: enum member access goes through the metaclass, and the
# event decoder would pay it per record.
_REQUEST, _RESPONSE, _EXTERNAL = (
    EventKind.REQUEST, EventKind.RESPONSE, EventKind.EXTERNAL)


# -- value encoding -------------------------------------------------------------
#
# Frozen weblang values are built from None/bool/int/float/str and tuples.
# JSON lacks tuples, so tuples are encoded as {"t": [...]}; everything else
# passes through.  (Dict payloads — request params — have string keys and
# scalar values and need no tagging.)


#: The exact types :func:`_enc` hands to JSON as they are.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _enc(value: object) -> object:
    """Tag the containers in ``value``.  Exact types are tested first,
    and a tuple or dict that holds only plain scalars — most do — is
    copied without a call per item."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, tuple):
        for item in value:
            if type(item) not in _PLAIN:
                return {"t": [_enc(item) for item in value]}
        return {"t": list(value)}
    if isinstance(value, list):  # defensive: lists inside request params
        return {"l": [_enc(item) for item in value]}
    if isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str or type(item) not in _PLAIN:
                return {"d": {str(k): _enc(v) for k, v in value.items()}}
        return {"d": dict(value)}
    return value


def _dec(value: object) -> object:
    """Inverse of :func:`_enc`: a tagged container is a dict whose one
    key is ``t``, ``l`` or ``d``.  Most containers hold only scalars and
    are copied without a call per item."""
    if type(value) is not dict or len(value) != 1:
        return value
    if "t" in value:
        inner = value["t"]
        for item in inner:
            if type(item) is dict:
                return tuple([_dec(item) for item in inner])
        return tuple(inner)
    if "d" in value:
        inner = value["d"]
        for item in inner.values():
            if type(item) is dict:
                return {key: _dec(item) for key, item in inner.items()}
        return dict(inner)
    if "l" in value:
        return [_dec(item) for item in value["l"]]
    return value


# -- trace ------------------------------------------------------------------------


def _event_to_json(event: Event) -> dict:
    kind = event.kind
    payload = event.payload
    if kind is _REQUEST:
        return {"kind": "REQUEST", "time": event.time, "request": {
            "rid": payload.rid,
            "script": payload.script,
            "get": _enc(dict(payload.get)),
            "post": _enc(dict(payload.post)),
            "cookies": _enc(dict(payload.cookies)),
        }}
    if kind is _RESPONSE:
        return {"kind": "RESPONSE", "time": event.time, "response": {
            "rid": payload.rid,
            "body": payload.body,
            "status": payload.status,
            "abort_info": payload.abort_info,
        }}
    return {"kind": kind.value, "time": event.time, "external": {
        "rid": payload.rid,
        "service": payload.service,
        "content": _enc(payload.content),
    }}


def _event_from_json(entry: dict) -> Event:
    kind = entry["kind"]
    time = entry.get("time", 0.0)
    if kind == "REQUEST":
        raw = entry["request"]
        rid = _str(raw["rid"], "event rid")
        return Event(
            _REQUEST, rid,
            Request(rid, _str(raw["script"], "event script"), _dec(raw["get"]),
                    _dec(raw["post"]), _dec(raw["cookies"])),
            time,
        )
    if kind == "RESPONSE":
        raw = entry["response"]
        rid = _str(raw["rid"], "event rid")
        return Event(
            _RESPONSE, rid,
            Response(rid, raw["body"], raw["status"], raw["abort_info"]),
            time,
        )
    if kind == "EXTERNAL":
        raw = entry["external"]
        rid = _str(raw["rid"], "event rid")
        return Event(
            _EXTERNAL, rid,
            ExternalRequest(rid, raw["service"], _dec(raw["content"])),
            time,
        )
    raise ValueError(f"{kind!r} is not a valid EventKind")


# -- reports ------------------------------------------------------------------------
#
# The decoders below are where report scalars become objects: no
# consumer of ``Reports`` meets an opnum or a count that is not an
# integer, a rid that is not a string, or an index outside its table.

#: An op-log row names its optype by its position here; its contents
#: have the arity Figure 12's table gives that optype, and a KV op's
#: first item is its key, a string.
_OPTYPES = tuple(OpType)
_ARITY = (0, 1, 1, 2, 2)
_KV_OPS = (OpType.KV_GET, OpType.KV_SET)
_NAMED = {int: "an integer", str: "a string", tuple: "a tuple"}


def _list_of(items: object, kind: type, what: str) -> list:
    """``items``, a list of exact ``kind``s: ``True`` is no index."""
    if type(items) is not list:
        raise TypeError(f"{what}s {items!r:.60} are not a list")
    if items and set(map(type, items)) != {kind}:
        bad = next(item for item in items if type(item) is not kind)
        raise ValueError(f"{what} {bad!r:.60}, not {_NAMED[kind]}")
    return items


def _str(value: object, what: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{what} {value!r:.60}, not a string")
    return value


def _rid_table(rids: object) -> list:
    if len(set(_list_of(rids, str, "rid"))) != len(rids):
        raise ValueError(f"rid table {rids!r:.60} names a request twice")
    return rids


def _columns(rows: object) -> list[list]:
    if type(rows) is not list or len(rows) % 4:
        raise ValueError(f"row array {rows!r:.60} is not rows of 4")
    return [rows[0::4], rows[1::4], rows[2::4], rows[3::4]]


def _lookup(column: list, table: Sequence, what: str) -> list:
    """``table[i]`` for each ``i``, where a negative ``i`` would alias
    the table's tail silently."""
    if column:
        low, high = min(_list_of(column, int, f"{what} index")), max(column)
        if low < 0 or high >= len(table):
            raise ValueError(f"{what} index {low if low < 0 else high} is "
                             f"outside its table of {len(table)}")
    return list(map(table.__getitem__, column))


def _op_log_record(obj: str, log: Sequence[OpRecord]) -> dict:
    """Two contents share a value entry only when ``marshal`` writes
    them alike: type for type, so ``1``, ``1.0`` and ``True`` do not."""
    rids: dict[str, int] = {}
    keys: dict[object, int] = {}
    values, rows = [], []
    for rec in log:
        try:
            key = marshal.dumps(rec.opcontents, 2)
        except ValueError:  # not a plain value: shares nothing
            key = object()
        if keys.setdefault(key, len(keys)) == len(values):
            values.append(_enc(rec.opcontents))
        rows += (rids.setdefault(rec.rid, len(rids)), rec.opnum,
                 _OPTYPES.index(rec.optype), keys[key])
    return {"kind": "op_log", "obj": obj, "rids": list(rids),
            "values": values, "rows": rows}


def _op_log_records(record: dict) -> list[OpRecord]:
    _str(record["obj"], "op-log object")
    values = _list_of(list(map(_dec, record["values"])), tuple, "op value")
    rids, opnums, codes, contents = _columns(record["rows"])
    optypes = _lookup(codes, _OPTYPES, "optype")
    contents = _lookup(contents, values, "value")
    if list(map(len, contents)) != list(map(_ARITY.__getitem__, codes)):
        raise ValueError("an op-log row's contents do not fit its optype")
    _list_of([value[0] for optype, value in zip(optypes, contents)
              if optype in _KV_OPS], str, "KV key")
    return list(map(tuple.__new__, repeat(OpRecord), zip(
        _lookup(rids, _rid_table(record["rids"]), "rid"),
        _list_of(opnums, int, "opnum"), optypes, contents)))


def _checked_op_counts(record: dict) -> zip:
    rids = _rid_table(record["rids"])
    if len(_list_of(record["counts"], int, "op count")) != len(rids):
        raise ValueError(f"op counts {record['counts']!r:.60} do not "
                         "match the rids")
    return zip(rids, record["counts"])


def _nondet_record(nondet: dict[str, list[NondetRecord]]) -> dict:
    funcs: dict[str, int] = {}
    rows = []
    for rid_index, records in enumerate(nondet.values()):
        for rec in records:
            rows += (rid_index, funcs.setdefault(rec.func, len(funcs)),
                     _enc(rec.args), _enc(rec.value))
    return {"kind": "nondet", "rids": list(nondet), "funcs": list(funcs),
            "rows": rows}


def _nondet_records(record: dict, nondet: dict) -> None:
    rids, funcs, args, values = _columns(record["rows"])
    calls = [nondet.setdefault(rid, []) for rid in _rid_table(record["rids"])]
    for into, func, arg, value in zip(
            _lookup(rids, calls, "rid"),
            _lookup(funcs, _list_of(record["funcs"], str, "func"), "func"),
            args, values):
        into.append(NondetRecord(func, _dec(arg), _dec(value)))


# -- initial state ---------------------------------------------------------------


def state_to_json(state: InitialState) -> dict:
    tables = {}
    for name, table in state.db_engine.tables.items():
        tables[name] = {
            "columns": list(table.columns),
            "types": dict(table.types),
            "primary_key": table.primary_key,
            "auto_column": table.auto_column,
            "auto_counter": table.auto_counter,
            "rows": [
                {col: row.get(col) for col in table.columns}
                for row in table.rows
            ],
        }
    return {
        "version": FORMAT_VERSION,
        "tables": tables,
        "kv": {key: _enc(value) for key, value in state.kv.items()},
        "registers": {
            name: _enc(value) for name, value in state.registers.items()
        },
    }


def state_from_json(data: dict) -> InitialState:
    try:
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported audit-bundle format version "
                f"{data.get('version')!r} (expected {FORMAT_VERSION})")
        engine = Engine()
        for name, raw in data["tables"].items():
            engine.tables[name] = Table(
                name,
                list(raw["columns"]),
                dict(raw["types"]),
                raw.get("primary_key"),
                raw.get("auto_column"),
                raw.get("auto_counter", 0),
                [dict(row) for row in raw["rows"]],
            )
        return InitialState(
            engine,
            {key: _dec(value) for key, value in data["kv"].items()},
            {name: _dec(value)
             for name, value in data["registers"].items()},
        )
    except _DECODE_FAULTS as exc:
        raise MalformedBundle.of(exc) from exc


# -- bundles ------------------------------------------------------------------------


#: First-line marker of the bundle format.
JSONL_FORMAT = "ssco-jsonl"

#: Header value naming the per-epoch record layout (the only one).
SEGMENTED_LAYOUT = "segmented"

#: Op-log records per JSONL line (bounds the working set of a consumer).
_JSONL_LOG_CHUNK = 1000

#: The decoder ``json.loads`` ends up calling, and its C scanner.
_DECODER = json.JSONDecoder()
_scan = make_scanner(_DECODER)
#: ``json.dumps`` for one record: the encoder it would use, minus the
#: cycle check — the record builders copy every container they are
#: given (``_enc``), so a cycle would not get as far as JSON.
_encode_record = json.JSONEncoder(check_circular=False).encode


def _parse_record(line: str):
    """``json.loads`` of one record line: the scanner alone when a value
    spans the line but for its newline, else (leading whitespace, CRLF,
    trailing junk, a torn value) the full decoder, failing as it does.
    A value nested past the decoder's recursion limit is a
    :class:`ValueError` too."""
    try:
        try:
            record, end = _scan(line, 0)
            if end == len(line) or (end == len(line) - 1
                                    and line[end] == "\n"):
                return record
        except (StopIteration, ValueError):
            pass
        return _DECODER.decode(line)
    except RecursionError:
        raise ValueError("record nests too deep to decode") from None


# -- record builders ------------------------------------------------------------
#
# The streaming record kinds, as plain dicts.  BundleWriter serializes
# them to JSONL lines; repro.net's BundlePublisher frames the very same
# dicts over a socket — one encoding, two transports.


def state_record(initial_state: InitialState) -> dict:
    return {"kind": "state", "state": state_to_json(initial_state)}


def event_record(event: Event) -> dict:
    return {"kind": "event", "event": _event_to_json(event)}


def epoch_mark_record(position: int) -> dict:
    return {"kind": "epoch_mark", "events": position}


def end_record(position: int) -> dict:
    return {"kind": "end", "events": position}


def ends_stream(record: object) -> bool:
    """True for the writer's ``end`` record.  Every decoded line or
    frame passes through here on its way to the accumulator, so one
    that is not a record at all is refused here too."""
    try:
        if type(record) is not dict:
            raise ValueError(f"bundle record is a JSON "
                             f"{type(record).__name__}, not an object")
        if record.get("kind") != "end":
            return False
        _checked_position(record)
        return True
    except ValueError as exc:
        raise MalformedBundle.of(exc) from exc


def _checked_position(record: dict) -> int:
    """The event count an ``epoch_mark`` / ``end`` carries: a report
    scalar like any other, so it must be what it claims to be."""
    events = record.get("events")
    if type(events) is not int or events < 0:
        raise ValueError(f"{record['kind']} record has events "
                         f"{events!r}, not a non-negative integer")
    return events


#: Every record dict above leads with its ``"kind"`` key, and
#: ``json.dumps`` preserves insertion order — so an encoded record's
#: kind is readable from its first bytes, in both the writer's spelling
#: (default separators) and the wire's (compact separators).
_KIND_PREFIXES = (b'{"kind": "', b'{"kind":"')


def record_kind(line: bytes) -> str | None:
    """The kind of one encoded record line, without parsing it.

    This is what lets :meth:`repro.net.BundlePublisher.
    write_record_payload` splice a recorder's on-disk bundle straight
    onto the wire: a prefix sniff instead of a full JSON round-trip per
    record.  Falls back to a real parse for encodings this module did
    not produce; returns ``None`` for the bundle header line (the only
    bundle line without a kind).
    """
    for prefix in _KIND_PREFIXES:
        if line.startswith(prefix):
            end = line.index(b'"', len(prefix))
            return line[len(prefix):end].decode("ascii")
    try:
        record = json.loads(line)
    except (ValueError, UnicodeDecodeError, RecursionError):
        return None
    kind = record.get("kind") if isinstance(record, dict) else None
    return kind if isinstance(kind, str) else None


def iter_report_records(reports: Reports) -> Iterator[dict]:
    """All four report types, op logs chunked at a bounded size."""
    for tag in reports.groups:
        yield {"kind": "group", "tag": tag,
               "rids": list(reports.groups[tag])}
    for obj, log in reports.op_logs.items():
        for start in range(0, len(log) or 1, _JSONL_LOG_CHUNK):
            yield _op_log_record(obj, log[start:start + _JSONL_LOG_CHUNK])
    yield {"kind": "op_counts", "rids": list(reports.op_counts),
           "counts": list(reports.op_counts.values())}
    if reports.nondet:
        yield _nondet_record(reports.nondet)


class BundleWriter:
    """Incremental writer of the streaming JSONL bundle.

    The writer is deliberately low-level — one method per record kind —
    so a recording server can append as it goes.  The layout is per-epoch
    runs (the epoch's events, then the epoch's report records), each
    non-first run opened by its ``epoch_mark``; finished bundles end
    with an ``end`` record so a tailing reader knows the stream is
    complete.  :meth:`write_epoch` emits one whole run.

    With ``autoflush`` (the default) every record is flushed, so a
    concurrently tailing reader never sees a torn line become
    permanent; batch savers turn it off and use ordinary buffering.
    """

    def __init__(self, path: str, autoflush: bool = True):
        self.path = path
        #: Flush after every record so a concurrently tailing reader
        #: sees it immediately (the live-writer default).  Batch savers
        #: pass ``autoflush=False`` and rely on ordinary buffering —
        #: nobody tails a file that is written and closed in one go.
        self.autoflush = autoflush
        #: Events written so far == the next event's trace index.
        self.position = 0
        self._fh = open(path, "w")
        self._closed = False
        self._emit({"format": JSONL_FORMAT, "version": FORMAT_VERSION,
                    "layout": SEGMENTED_LAYOUT})

    def _emit(self, record: dict) -> None:
        self._fh.write(_encode_record(record) + "\n")
        if self.autoflush:
            self._fh.flush()

    def write_state(self, initial_state: InitialState) -> None:
        self._emit(state_record(initial_state))

    def write_event(self, event: Event) -> None:
        self._emit(event_record(event))
        self.position += 1

    def write_epoch_mark(self) -> None:
        """Record a quiescent cut at the current position."""
        self._emit(epoch_mark_record(self.position))

    def write_reports(self, reports: Reports) -> None:
        """All four report types, op logs chunked at a bounded size."""
        for record in iter_report_records(reports):
            self._emit(record)

    def write_epoch(self, trace: Trace, reports: Reports) -> None:
        """One self-contained epoch run: the opening mark (for every
        epoch after the first), the slice's events, then the slice's
        reports."""
        if self.position > 0:
            self.write_epoch_mark()
        for event in trace:
            self.write_event(event)
        self.write_reports(reports)

    def write_end(self) -> None:
        """Mark the stream complete (stops ``follow`` readers)."""
        self._emit(end_record(self.position))

    def write_payload_line(self, payload: bytes,
                           kind: str | None = None) -> None:
        """Append one **already-encoded** record line verbatim.

        The zero re-encode path's mirror half: the publisher encodes
        each record exactly once (the wire's compact encoding) and the
        ``--out`` mirror writes those same bytes as a bundle line —
        ``record_kind`` and every reader accept both JSON spellings.
        ``kind`` skips the prefix sniff when the caller already knows
        it.  Position bookkeeping matches the record-level methods.
        """
        payload = payload.rstrip(b"\r\n")
        if kind is None:
            kind = record_kind(payload)
        if kind is None:
            raise ValueError(
                "record payload has no kind (bundle header lines are "
                "emitted by the constructor, not appended)"
            )
        self._fh.write(payload.decode() + "\n")
        if self.autoflush:
            self._fh.flush()
        if kind == "event":
            self.position += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> BundleWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class EpochAccumulator:
    """The segmented-stream state machine shared by the file reader and
    the net client: feed bundle records in order, get
    :class:`EpochSlice` objects out at each ``epoch_mark``.

    Keeping one copy of this loop is what guarantees the two transports
    cannot drift: a record stream produces the same slices whether it
    came off a disk or a socket.
    """

    def __init__(self, index: int = 0):
        #: Set when the ``state`` record passes through — the verifier's
        #: trusted input (§4.1), so a stream has one: a later one is
        #: refused, not taken in place of the first.
        self.initial_state: InitialState | None = None
        self.reset(index)

    def reset(self, index: int) -> None:
        """Start epoch ``index`` afresh, discarding any partial epoch
        being accumulated (the net client's resume: the publisher
        replays it from the start)."""
        self.index = index
        self.trace = Trace()
        self.reports = Reports()

    def _cut(self) -> EpochSlice:
        slice_ = EpochSlice(self.index, self.trace, self.reports)
        self.reset(self.index + 1)
        return slice_

    def feed(self, record: dict) -> EpochSlice | None:
        """Consume one record — decoding it, once, into the objects the
        audit takes; returns the finished slice when the record is an
        ``epoch_mark`` closing a non-empty epoch.  A record that is not
        what its kind says — a missing or mistyped field, an unknown
        kind, a second ``state`` — raises
        :class:`~repro.common.errors.MalformedBundle`."""
        try:
            kind = record["kind"]
            if kind == "event":
                self.trace.events.append(_event_from_json(record["event"]))
            elif kind == "op_log":
                log = _op_log_records(record)
                self.reports.op_logs.setdefault(record["obj"], []).extend(log)
            elif kind == "nondet":
                _nondet_records(record, self.reports.nondet)
            elif kind == "group":
                rids = _list_of(record["rids"], str, "group rid")
                self.reports.groups.setdefault(
                    _str(record["tag"], "group tag"), []).extend(rids)
            elif kind == "op_counts":
                self.reports.op_counts.update(_checked_op_counts(record))
            elif kind == "epoch_mark":
                _checked_position(record)
                return self._cut() if self.trace.events else None
            elif kind == "state":
                if self.initial_state is not None:
                    raise ValueError("state record after the first")
                self.initial_state = state_from_json(record["state"])
            else:
                raise ValueError(f"unknown bundle record kind {kind!r}")
            return None
        except MalformedBundle:
            raise  # state_from_json's own
        except _DECODE_FAULTS as exc:
            raise MalformedBundle.of(exc) from exc

    def flush(self) -> EpochSlice | None:
        """The trailing slice at stream end — including a *torn* one
        (stream stopped mid-epoch): yielding it makes truncation loud
        (the audit rejects an unbalanced slice) instead of silently
        passing a shortened stream."""
        return self._cut() if len(self.trace) else None


@dataclass
class EpochIndex:
    """Byte-offset index over a segmented bundle's epoch runs.

    Built by one cheap binary scan (:meth:`BundleReader.epoch_index`)
    that sniffs each line's record kind without parsing event payloads;
    ``offsets[n]`` is where epoch ``n``'s run begins, so
    :meth:`BundleReader.seek_epoch` can jump straight to epoch N
    instead of replaying the whole JSONL stream.
    """

    #: Byte offset of each epoch run's first record.
    offsets: list[int] = field(default_factory=list)
    #: The ``events`` counter of each ``epoch_mark`` record, in order
    #: (same values :meth:`BundleReader.read_all` returns as marks).
    marks: list[int] = field(default_factory=list)
    #: Byte offset of the ``state`` record, if present.
    state_offset: int | None = None
    #: True when the writer's ``end`` record was found (a bundle still
    #: being written — or torn — scans as incomplete).
    complete: bool = False

    @property
    def epoch_count(self) -> int:
        return len(self.offsets)


def _bundle_header(first: str, path: str) -> dict:
    """The header of a segmented v2 bundle from its first line — or a
    :class:`ValueError` naming what the file holds instead."""
    header = None
    if first.endswith("\n"):
        try:
            header = json.loads(first)
        except ValueError:
            pass
    if not isinstance(header, dict) or header.get("format") != JSONL_FORMAT:
        if not first:
            found = "is empty"
        elif first.startswith("{") and '"trace"' in first[:64]:
            found = "is a legacy one-blob JSON bundle"
        else:
            found = f"starts with {first[:40]!r}"
    elif header.get("layout") != SEGMENTED_LAYOUT:
        found = ("has the tail-reports layout (its header names no "
                 f'"layout": "{SEGMENTED_LAYOUT}")')
    elif header.get("version") != FORMAT_VERSION:
        found = (f"has format version {header.get('version')!r} "
                 f"(expected {FORMAT_VERSION})")
    else:
        return header
    raise ValueError(f"not a segmented {JSONL_FORMAT} bundle: {path} {found}")


class BundleReader:
    """Streaming reader of the segmented JSONL bundle.

    * :meth:`epochs` — an iterator of :class:`EpochSlice`, each emitted
      as soon as its closing ``epoch_mark`` / ``end`` arrives;
    * :meth:`read_all` — the whole bundle at once:
      ``(trace, reports, initial_state, epoch_marks)``;
    * ``follow=True`` tails a bundle that is still being written,
      sleeping ``poll_interval`` between attempts and giving up after
      ``idle_timeout`` seconds without new data (``None`` waits until
      the writer's ``end`` record).

    The header is parsed eagerly, so constructing a reader on anything
    but a segmented v2 bundle raises
    :class:`~repro.common.errors.MalformedBundle` (a ``ValueError``)
    immediately, naming what the file holds instead — as does any later
    read that meets a record it cannot decode.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path)
        self._partial = ""
        #: Every record this reader reads is decoded here, whichever
        #: method asked for it: the state record is met once, and the
        #: slices are numbered from where :meth:`seek_epoch` left it.
        self._accumulator = EpochAccumulator()
        #: Epochs :meth:`read_initial_state` closed on its way to the
        #: state record.
        self._early: list[EpochSlice] = []
        self._ended = False
        self._closed = False
        self._epoch_index: EpochIndex | None = None
        try:
            # Bounded: a legacy blob is one line as long as the file.
            self.header = _bundle_header(self._fh.readline(4096), path)
        except ValueError as exc:
            self._fh.close()
            raise MalformedBundle.of(exc) from exc

    @classmethod
    def open(
        cls,
        path: str,
        follow: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> BundleReader:
        """Construct a reader; with ``follow=True``, wait for the file
        and its header line to appear first.

        The continuous deployment has a startup race: the auditor may
        be launched before the recording server opens its
        :class:`BundleWriter` (or within one flush of it).  A plain
        constructor call would fail on the missing/torn header; this
        waits up to ``idle_timeout`` seconds for a complete first line.
        A header that is complete but wrong (a legacy blob, a foreign
        file) still raises immediately.
        """
        if not follow:
            return cls(path)
        # A real-clock deadline: accumulating assumed sleep intervals
        # would overshoot the timeout whenever the open/read itself is
        # slow (network filesystems, a loaded host).
        deadline = Deadline(idle_timeout)
        while True:
            prefix = None
            try:
                with open(path) as fh:
                    prefix = fh.read(4096)
            except OSError:
                pass
            if prefix is not None and (
                "\n" in prefix or len(prefix) >= 4096
            ):
                # Header line complete — or provably not a short JSONL
                # header; either way the constructor has its answer.
                return cls(path)
            if deadline.expired():
                return cls(path)  # surfaces the real open/parse error
            deadline.sleep(poll_interval)

    # -- record stream ----------------------------------------------------

    def _records(
        self,
        follow: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> Iterator[dict]:
        """Parsed records, from where the last read stopped.

        In follow mode, EOF means "wait for the writer": poll until new
        complete lines appear, the writer's ``end`` record arrives, or
        ``idle_timeout`` seconds pass without progress.
        """
        if self._ended:
            return
        # The idle timeout is measured on the monotonic clock
        # (repro.common.clock.Deadline, shared with the net transport),
        # not by summing assumed ``poll_interval`` sleeps — slow reads
        # must count against the timeout too.
        deadline = Deadline(idle_timeout)
        while True:
            line = self._fh.readline()
            if not line:
                if not follow or self._ended:
                    return
                if deadline.expired():
                    return
                deadline.sleep(poll_interval)
                continue
            torn = not line.endswith("\n")
            if torn:
                # The writer is mid-record.  Stash it; the next readline
                # continues from the same byte offset.
                self._partial += line
                if follow:
                    continue
                # Finished file whose last record lacks the trailing
                # newline (writer died between its two writes).  If the
                # JSON is complete it is a real record; truncated JSON
                # does not decode.
                line, self._partial = self._partial, ""
            elif self._partial:
                line, self._partial = self._partial + line, ""
            deadline.restart()
            if not line.isspace():
                try:
                    record = _parse_record(line)
                except ValueError as exc:
                    raise MalformedBundle.of(exc) from exc
                if ends_stream(record):
                    self._ended = True
                    return
                yield record
                # Re-armed after the consumer returns: time spent
                # auditing an epoch between yields is not stream
                # idleness (the deadline bounds consecutive empty
                # polls).
                deadline.restart()
            if torn:
                return

    # -- whole-bundle loading ---------------------------------------------

    def read_all(self):
        """Consume the rest of a finished file into
        ``(trace, reports, initial_state, epoch_marks)``."""
        # The accumulator is never cut: the marks are collected, every
        # other record is decoded exactly as :meth:`epochs` would.
        accumulator = self._accumulator
        epoch_marks: list[int] = []
        for record in self._records():
            if record.get("kind") == "epoch_mark":
                try:
                    epoch_marks.append(_checked_position(record))
                except ValueError as exc:
                    raise MalformedBundle.of(exc) from exc
            else:
                accumulator.feed(record)
        return (accumulator.trace, accumulator.reports,
                self.initial_state, epoch_marks)

    # -- incremental epoch streaming --------------------------------------

    @property
    def initial_state(self) -> InitialState:
        """The bundle's initial state (reads ahead to the state record,
        which precedes the first event)."""
        return self.read_initial_state()

    def read_initial_state(
        self,
        follow: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> InitialState:
        """Read up to the state record and decode it, once; the next
        consumer (:meth:`epochs` / :meth:`read_all`) starts after it.
        (An epoch that closes before the state record — no writer puts
        one there — is kept for :meth:`epochs`.)"""
        accumulator = self._accumulator
        if accumulator.initial_state is None:
            for record in self._records(follow, poll_interval,
                                        idle_timeout):
                epoch_slice = accumulator.feed(record)
                if epoch_slice is not None:
                    self._early.append(epoch_slice)
                if accumulator.initial_state is not None:
                    break
        if accumulator.initial_state is None:
            raise MalformedBundle(
                f"bundle {self.path} has no initial state record"
            )
        return accumulator.initial_state

    def epochs(
        self,
        follow: bool = False,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> Iterator[EpochSlice]:
        """Yield the bundle's epochs as independently auditable slices,
        each the moment its run is closed by the next ``epoch_mark`` (or
        the stream's end) — which is what makes ``follow=True`` a live
        audit feed."""
        accumulator = self._accumulator
        while self._early:
            yield self._early.pop(0)
        for record in self._records(follow, poll_interval, idle_timeout):
            epoch_slice = accumulator.feed(record)
            if epoch_slice is not None:
                yield epoch_slice
        epoch_slice = accumulator.flush()
        if epoch_slice is not None:
            yield epoch_slice

    # -- random access -----------------------------------------------------

    def epoch_index(self) -> EpochIndex:
        """Scan the file once (binary, kind-sniffing only) and cache a
        byte-offset index of its epoch runs."""
        if self._epoch_index is not None:
            return self._epoch_index
        index = EpochIndex()
        with open(self.path, "rb") as raw:
            offset = len(raw.readline())  # the header: checked at open
            index.offsets.append(offset)
            while True:
                line = raw.readline()
                if not line or not line.endswith(b"\n"):
                    break  # EOF or torn tail: the writer is mid-record
                kind = record_kind(line)
                if kind == "end":
                    index.complete = True
                    break
                if kind == "state" and index.state_offset is None:
                    index.state_offset = offset
                    if index.offsets[-1] == offset:
                        # Not part of epoch 0's run: seek_epoch decodes
                        # it from state_offset, the cursor starts past it.
                        index.offsets[-1] = offset + len(line)
                offset += len(line)
                if kind == "epoch_mark":
                    try:
                        index.marks.append(
                            _checked_position(json.loads(line)))
                    except _DECODE_FAULTS as exc:
                        raise MalformedBundle.of(exc) from exc
                    index.offsets.append(offset)
        # A mark (or the state record alone) directly before end/EOF
        # leaves a trailing offset that starts no epoch; drop it.
        if index.offsets and index.offsets[-1] == offset:
            index.offsets.pop()
        self._epoch_index = index
        return index

    def seek_epoch(self, epoch: int) -> None:
        """Reposition the reader so the next :meth:`epochs` call starts
        at epoch ``epoch`` — without replaying the stream before it
        (each epoch run is self-contained).  The initial state is read
        (and cached) first via the index's state offset, so
        :attr:`initial_state` keeps working after a forward seek.
        """
        index = self.epoch_index()
        if not 0 <= epoch < index.epoch_count:
            raise ValueError(
                f"epoch {epoch} out of range (bundle has "
                f"{index.epoch_count} indexed epoch(s))"
            )
        accumulator = self._accumulator
        if (accumulator.initial_state is None
                and index.state_offset is not None):
            with open(self.path, "rb") as raw:
                raw.seek(index.state_offset)
                line = raw.readline()
            try:
                state = json.loads(line)["state"]
            except _DECODE_FAULTS as exc:
                raise MalformedBundle.of(exc) from exc
            accumulator.initial_state = state_from_json(state)
        # Reopen at the epoch's byte offset: seeking a TextIOWrapper to
        # an arbitrary byte position is undefined, so wrap a freshly
        # positioned binary handle instead.
        raw = open(self.path, "rb")
        raw.seek(index.offsets[epoch])
        old = self._fh
        self._fh = _stdio.TextIOWrapper(raw, encoding="utf-8")
        old.close()
        self._partial = ""
        self._early = []
        self._ended = False
        accumulator.reset(epoch)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> BundleReader:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def save_audit_bundle_segmented(
    path: str,
    trace: Trace,
    reports: Reports,
    initial_state: InitialState,
    epoch_marks: Sequence[int] = (),
) -> int:
    """Write a finished execution as one bundle: each epoch's events
    followed by that epoch's report records, cut at ``epoch_marks`` (the
    executor's quiescent points) by the partitioner.  When the reports
    refuse to split, the whole execution becomes one run — still a valid
    bundle.  Returns the number of epochs written."""
    from repro.core.partition import partition_audit_inputs

    epochs = partition_audit_inputs(trace, reports, epoch_marks)
    with BundleWriter(path, autoflush=False) as writer:
        writer.write_state(initial_state)
        for epoch in epochs:
            writer.write_epoch(epoch.trace, epoch.reports)
        writer.write_end()
    return len(epochs)
