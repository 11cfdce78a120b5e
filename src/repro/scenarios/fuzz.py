"""Tamper fuzzer: randomized mutations that the audit must REJECT.

Soundness as a soak test: take an honestly recorded bundle, apply
randomized tamper operators — drop/duplicate/reorder trace records,
flip response bodies, rewrite the reports (op logs, op counts, nondet
values, group membership), forge report scalars (an op count or an
opnum turned huge, negative or non-integer), point report rows at
hostile tables and indices (out of range, negative, a ragged row array,
an entry of the wrong type, a rid named twice), splice whole epoch runs,
truncate the file mid-record, and corrupt/truncate frames on the wire
encoding — then audit the mutated file the way ``repro audit`` does
(:class:`~repro.io.BundleReader` epochs into an audit session) and
assert the mutation is rejected through one of three channels:

* ``audit``  — the audit runs and REJECTs;
* ``load``   — the reader refuses a record mid-stream (torn JSON, an
  unknown record kind, missing state, a scalar that is not an integer);
* ``wire``   — the framed transport refuses the bytes
  (:class:`ProtocolError` CRC/length corruption, truncated frame).

A mutation that is ACCEPTed is a soundness bug: the fuzzer shrinks its
edit list to a minimal reproducer (classic ddmin) and reports it.  The
audit entry point is injectable (``audit_fn``, bundle path in, verdict
out) so the shrinker is testable against a deliberately buggy audit.

Every mutation's randomness derives from ``(seed, index)`` only, so a
failure report's ``(seed, index)`` pair replays exactly.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time as _time
from dataclasses import dataclass, field

from repro.common.errors import MalformedBundle, RejectReason
from repro.core import Auditor
from repro.core.config import AuditConfig
from repro.io import BundleReader, record_kind
from repro.net.protocol import (
    RECORD_BATCH,
    ProtocolError,
    TransportError,
    decode_frame,
    encode_frame,
)

CHANNEL_AUDIT = "audit"
CHANNEL_LOAD = "load"
CHANNEL_WIRE = "wire"

#: File-level operators (chosen at random, weights uniform unless
#: repeated).  Wire operators are listed separately: they attack the
#: frame encoding, not the file.
FILE_OPERATORS = (
    "flip_response",
    "drop_event",
    "duplicate_event",
    "reorder_pair",
    "flip_op_log",
    "tamper_op_count",
    "flip_nondet",
    "tamper_state",
    "splice_epochs",
    "truncate_tail",
    "forge_op_count",
    "forge_opnum",
    "hostile_index",
)
WIRE_OPERATORS = ("wire_corrupt", "wire_truncate")
ALL_OPERATORS = FILE_OPERATORS + WIRE_OPERATORS


@dataclass
class MutationOutcome:
    """One mutation's verdict."""

    index: int
    operator: str
    edits: list[dict]
    rejected: bool
    channel: str | None = None
    reason: str | None = None
    shrunk: list[dict] | None = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "operator": self.operator,
            "edits": self.edits,
            "rejected": self.rejected,
            "channel": self.channel,
            "reason": self.reason,
            "shrunk": self.shrunk,
        }


@dataclass
class FuzzReport:
    """The campaign result (``repro fuzz --json`` payload core)."""

    bundle: str
    mutations: int
    seed: int
    outcomes: list[MutationOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if o.rejected)

    @property
    def accepted(self) -> list[MutationOutcome]:
        return [o for o in self.outcomes if not o.rejected]

    def to_json(self) -> dict:
        channels = {CHANNEL_AUDIT: 0, CHANNEL_LOAD: 0, CHANNEL_WIRE: 0}
        operators: dict[str, dict] = {}
        for outcome in self.outcomes:
            stats = operators.setdefault(
                outcome.operator, {"mutations": 0, "rejected": 0}
            )
            stats["mutations"] += 1
            if outcome.rejected:
                stats["rejected"] += 1
                channels[outcome.channel] += 1
        return {
            "bundle": self.bundle,
            "mutations": self.mutations,
            "seed": self.seed,
            "rejected": self.rejected,
            "accepted": len(self.accepted),
            "all_rejected": not self.accepted,
            "channels": channels,
            "operators": operators,
            "accepted_mutations": [o.to_json() for o in self.accepted],
            "elapsed_seconds": self.elapsed_seconds,
        }


# ---------------------------------------------------------------------------
# Edit application.  Edits are concrete, JSON-able, and always refer to
# ORIGINAL line numbers; apply_edits sequences them so any subset of a
# mutation's edits (the shrinker's probes) applies cleanly.


def apply_edits(lines: list[bytes], edits: list[dict]) -> bytes:
    """The mutated bundle bytes from original ``lines`` plus ``edits``."""
    ranged = [e for e in edits if e["op"] != "truncate"]
    # Descending start position: earlier edits keep their coordinates.
    ranged.sort(key=lambda e: e.get("line", e.get("start", 0)),
                reverse=True)
    out = list(lines)
    for edit in ranged:
        op = edit["op"]
        if op == "replace_line":
            out[edit["line"]] = edit["text"].encode()
        elif op == "delete_line":
            del out[edit["line"]]
        elif op == "insert_line":
            out.insert(edit["line"], edit["text"].encode())
        elif op == "replace_range":
            out[edit["start"]:edit["end"]] = [
                t.encode() for t in edit["texts"]
            ]
        else:
            raise ValueError(f"unknown edit op {op!r}")
    data = b"\n".join(out) + b"\n"
    for edit in edits:
        if edit["op"] == "truncate":
            data = data[:edit["byte"]]
    return data


# ---------------------------------------------------------------------------


class _Catalog:
    """Parsed index over the bundle's lines, built once per campaign."""

    def __init__(self, lines: list[bytes]):
        self.lines = lines
        self.events: list[int] = []
        self.responses: list[int] = []
        self.requests: list[int] = []
        self.op_logs: list[int] = []
        self.op_counts: list[int] = []
        self.nondets: list[int] = []
        self.groups: list[int] = []
        self.marks: list[int] = []
        self.end: int | None = None
        self.rid_lines: dict[str, dict] = {}
        self.bodies: dict[str, str] = {}
        self.states: list[int] = []
        for index, line in enumerate(lines):
            kind = record_kind(line)
            if kind is None:
                continue  # header
            if kind == "event":
                self.events.append(index)
                record = json.loads(line)
                event = record["event"]
                if "request" in event:
                    self.requests.append(index)
                    rid = event["request"]["rid"]
                    self.rid_lines.setdefault(rid, {})["request"] = index
                elif "response" in event:
                    self.responses.append(index)
                    resp = event["response"]
                    rid = resp["rid"]
                    self.rid_lines.setdefault(rid, {})["response"] = index
                    self.bodies[rid] = resp.get("body") or ""
            elif kind == "state":
                self.states.append(index)
            elif kind == "op_log":
                self.op_logs.append(index)
            elif kind == "op_counts":
                self.op_counts.append(index)
            elif kind == "nondet":
                self.nondets.append(index)
            elif kind == "group":
                self.groups.append(index)
            elif kind == "epoch_mark":
                self.marks.append(index)
            elif kind == "end":
                self.end = index

    def parse(self, index: int) -> dict:
        return json.loads(self.lines[index])

    def epoch_runs(self) -> list[tuple[int, int]]:
        """(start, end) line ranges of each epoch run (segmented
        layout): run 0 starts after the header, run k>0 at its opening
        epoch_mark; every run ends at the next mark (or ``end``/EOF)."""
        bounds = [1] + [m for m in self.marks]
        stop = self.end if self.end is not None else len(self.lines)
        runs = []
        for i, start in enumerate(bounds):
            end = bounds[i + 1] if i + 1 < len(bounds) else stop
            if end > start:
                runs.append((start, end))
        return runs


def _encode(record: dict) -> str:
    return json.dumps(record)


# Each chooser returns a list of edits, or None when the operator does
# not apply to this bundle (the driver then picks another operator).


def _choose_flip_response(cat: _Catalog, rng: random.Random):
    candidates = [
        i for i in cat.responses
        if json.loads(cat.lines[i])["event"]["response"]["body"]
    ]
    if not candidates:
        return None
    index = rng.choice(candidates)
    record = cat.parse(index)
    body = record["event"]["response"]["body"]
    pos = rng.randrange(len(body))
    flipped = body[:pos] + chr((ord(body[pos]) % 90) + 33) + body[pos + 1:]
    if flipped == body:
        flipped = body + "<!--tampered-->"
    record["event"]["response"]["body"] = flipped
    return [{"op": "replace_line", "line": index,
             "text": _encode(record)}]


def _choose_drop_event(cat: _Catalog, rng: random.Random):
    if not cat.events:
        return None
    index = rng.choice(cat.events)
    return [{"op": "delete_line", "line": index}]


def _choose_duplicate_event(cat: _Catalog, rng: random.Random):
    if not cat.events:
        return None
    index = rng.choice(cat.events)
    return [{"op": "insert_line", "line": index + 1,
             "text": cat.lines[index].decode()}]


def _choose_reorder_pair(cat: _Catalog, rng: random.Random):
    pairs = [
        (slots["request"], slots["response"])
        for slots in cat.rid_lines.values()
        if "request" in slots and "response" in slots
        and slots["request"] < slots["response"]
    ]
    if not pairs:
        return None
    req_line, resp_line = pairs[rng.randrange(len(pairs))]
    # Deliver the response before its own request: delete it from its
    # position and re-insert it ahead of the request record.
    return [
        {"op": "delete_line", "line": resp_line},
        {"op": "insert_line", "line": req_line,
         "text": cat.lines[resp_line].decode()},
    ]


def _rewrite_op_log_row(cat: _Catalog, rng: random.Random, rewrite):
    """One op-log line with ``rewrite(record, row)`` applied to the
    row that starts at ``record["rows"][row]``."""
    if not cat.op_logs:
        return None
    index = rng.choice(cat.op_logs)
    record = cat.parse(index)
    if not record["rows"]:
        return None
    rewrite(record, 4 * rng.randrange(len(record["rows"]) // 4))
    return [{"op": "replace_line", "line": index,
             "text": _encode(record)}]


def _rewrite_op_count(cat: _Catalog, rng: random.Random, rewrite):
    """One op-counts line with one request's count put through
    ``rewrite``."""
    if not cat.op_counts:
        return None
    index = rng.choice(cat.op_counts)
    record = cat.parse(index)
    counts = record["counts"]
    if not counts:
        return None
    at = rng.randrange(len(counts))
    counts[at] = rewrite(counts[at])
    return [{"op": "replace_line", "line": index,
             "text": _encode(record)}]


def _tampered(value):
    """An encoded value of the same shape with its last string (else its
    last integer) changed, or None when it has neither."""
    if type(value) is str:
        return value + "~tampered"
    if type(value) is int:
        return value + 1
    items = value.get("t") if type(value) is dict else None
    for at in reversed(range(len(items or ()))):
        edited = _tampered(items[at])
        if edited is not None:
            return {"t": items[:at] + [edited] + items[at + 1:]}
    return None


def _choose_flip_op_log(cat: _Catalog, rng: random.Random):
    def flip(record, row):
        rows, values, branch = record["rows"], record["values"], rng.randrange(3)
        # Contents to edit: the row's, else another row's of the line
        # (``()`` has nothing to edit), as a new value-table entry.
        editable = [at for at in [row, *range(0, len(rows), 4)]
                    if _tampered(values[rows[at + 3]]) is not None]
        if branch == 0 and editable:
            values.append(_tampered(values[rows[editable[0] + 3]]))
            rows[editable[0] + 3] = len(values) - 1
        elif branch < 2:
            rows[row + 1] += 1000
        else:  # its rid: one the trace does not have
            rows[row] = len(record["rids"])
            record["rids"].append("zz999999")

    return _rewrite_op_log_row(cat, rng, flip)


def _choose_tamper_op_count(cat: _Catalog, rng: random.Random):
    return _rewrite_op_count(cat, rng, lambda count: count + 1)


def _forged_scalar(value: int, rng: random.Random) -> object:
    """What a report scalar must never be allowed to cost or crash: a
    huge one (the audit may not allocate by it), a negative one, and
    three that are not integers at all."""
    return rng.choice(
        (value + 3_000_000, -value - 1, str(value), value + 0.5, None))


def _choose_forge_op_count(cat: _Catalog, rng: random.Random):
    return _rewrite_op_count(
        cat, rng, lambda count: _forged_scalar(count, rng))


def _choose_forge_opnum(cat: _Catalog, rng: random.Random):
    def forge(record, row):
        record["rows"][row + 1] = _forged_scalar(record["rows"][row + 1], rng)

    return _rewrite_op_log_row(cat, rng, forge)


#: Hostile tables and indices, by name -> an edit of an op-log or nondet
#: record, handed the cell ``at`` of its rows that indexes ``table``.
#: Each must be refused as malformed: never an ``IndexError``, never a
#: read through the slot a negative index or a repeated rid aliases.
HOSTILE_INDEX = {
    "out_of_range": lambda record, at, table, rng: record["rows"].__setitem__(
        at, len(table) + rng.randrange(3)),
    "negative": lambda record, at, table, rng: record["rows"].__setitem__(
        at, -1 - rng.randrange(len(table))),
    "ragged_rows": lambda record, at, table, rng: record["rows"].pop(),
    "entry_type": lambda record, at, table, rng: table.__setitem__(
        rng.randrange(len(table)), rng.choice((7, None, [7]))),
    "duplicate_rid": lambda record, at, table, rng: record["rids"].append(
        record["rids"][rng.randrange(len(record["rids"]))]),
}


def _choose_hostile_index(cat: _Catalog, rng: random.Random):
    if not cat.op_logs + cat.nondets:
        return None
    index = rng.choice(cat.op_logs + cat.nondets)
    record = cat.parse(index)
    if not record["rows"]:
        return None
    table = rng.choice(("rids", "values" if "values" in record else "funcs"))
    at = 4 * rng.randrange(len(record["rows"]) // 4) + {
        "rids": 0, "funcs": 1, "values": 3}[table]
    HOSTILE_INDEX[rng.choice(sorted(HOSTILE_INDEX))](
        record, at, record[table], rng)
    return [{"op": "replace_line", "line": index, "text": _encode(record)}]


def _choose_flip_nondet(cat: _Catalog, rng: random.Random):
    # A free nondet value is NOT tamper evidence: changing time() or
    # uniqid() where the value never reaches an output is equivalent to
    # a different honest execution, which the audit rightly ACCEPTs.
    # Only values *observable* in the same request's recorded response
    # body are sound targets — there the re-executed body must diverge.
    candidates = []
    for index in cat.nondets:
        record = cat.parse(index)
        rows = record["rows"]
        for at in range(0, len(rows), 4):
            body = cat.bodies.get(record["rids"][rows[at]], "")
            value = rows[at + 3]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                continue
            text = str(value)
            # Short values match bodies coincidentally; require enough
            # entropy that a hit really is this call's value.
            if len(text) >= 6 and text in body:
                candidates.append((index, at + 3))
    if not candidates:
        return None
    index, at = candidates[rng.randrange(len(candidates))]
    record = cat.parse(index)
    value = record["rows"][at]
    record["rows"][at] = value + 1 if isinstance(value, int) else value + "x"
    return [{"op": "replace_line", "line": index,
             "text": _encode(record)}]


def _choose_tamper_state(cat: _Catalog, rng: random.Random):
    # Tamper the initial-state checkpoint: flip a table cell whose
    # value is visible in some recorded response body, so honest
    # re-execution from the doctored state cannot reproduce the trace.
    if not cat.states:
        return None
    index = cat.states[0]
    record = cat.parse(index)
    all_bodies = "\n".join(cat.bodies.values())
    candidates = []
    tables = record["state"].get("tables", {})
    for tname, table in tables.items():
        for row_pos, row in enumerate(table.get("rows", [])):
            for column, cell in row.items():
                if (isinstance(cell, str) and len(cell) >= 4
                        and cell in all_bodies):
                    candidates.append((tname, row_pos, column))
    if not candidates:
        return None
    tname, row_pos, column = candidates[rng.randrange(len(candidates))]
    row = tables[tname]["rows"][row_pos]
    row[column] = row[column] + "~tampered"
    return [{"op": "replace_line", "line": index,
             "text": _encode(record)}]


def _choose_splice_epochs(cat: _Catalog, rng: random.Random,
                          donor: _Catalog | None = None):
    runs = cat.epoch_runs()
    if donor is not None:
        donor_runs = donor.epoch_runs()
        if not runs or not donor_runs:
            return None
        for _ in range(8):
            start, end = runs[rng.randrange(len(runs))]
            d_start, d_end = donor_runs[rng.randrange(len(donor_runs))]
            texts = [donor.lines[i].decode()
                     for i in range(d_start, d_end)]
            original = [cat.lines[i].decode() for i in range(start, end)]
            # A donor epoch identical to the target's (e.g. same-seed
            # bundles sharing a prefix) splices to a no-op, which the
            # audit rightly accepts — not a tamper.
            if texts != original:
                return [{"op": "replace_range", "start": start,
                         "end": end, "texts": texts}]
        return None
    if len(runs) < 2:
        return None
    a, b = rng.sample(range(len(runs)), 2)
    (sa, ea), (sb, eb) = runs[a], runs[b]
    texts_a = [cat.lines[i].decode() for i in range(sa, ea)]
    texts_b = [cat.lines[i].decode() for i in range(sb, eb)]
    return [
        {"op": "replace_range", "start": sa, "end": ea,
         "texts": texts_b},
        {"op": "replace_range", "start": sb, "end": eb,
         "texts": texts_a},
    ]


def _choose_truncate_tail(cat: _Catalog, rng: random.Random):
    # Cut mid-record somewhere after the first quarter of the file so
    # the torn line is loud (a clean cut before `end` could be an
    # honest shorter run).
    if len(cat.lines) < 4:
        return None
    target = rng.randrange(len(cat.lines) // 4, len(cat.lines))
    if cat.end is not None and target >= cat.end:
        target = max(1, cat.end - 1)
    offset = sum(len(line) + 1 for line in cat.lines[:target])
    line = cat.lines[target]
    cut = offset + 1 + rng.randrange(max(1, len(line) - 1))
    return [{"op": "truncate", "byte": cut}]


_FILE_CHOOSERS = {
    "flip_response": _choose_flip_response,
    "drop_event": _choose_drop_event,
    "duplicate_event": _choose_duplicate_event,
    "reorder_pair": _choose_reorder_pair,
    "flip_op_log": _choose_flip_op_log,
    "tamper_op_count": _choose_tamper_op_count,
    "flip_nondet": _choose_flip_nondet,
    "tamper_state": _choose_tamper_state,
    "splice_epochs": _choose_splice_epochs,
    "truncate_tail": _choose_truncate_tail,
    "forge_op_count": _choose_forge_op_count,
    "forge_opnum": _choose_forge_opnum,
    "hostile_index": _choose_hostile_index,
}


# ---------------------------------------------------------------------------
# Wire-path mutations: frame a record the way the publisher does (a
# RECORD_BATCH, here of one) and corrupt the frame; the stock decoder
# must refuse the bytes.


def _wire_outcome(cat: _Catalog, rng: random.Random,
                  truncate: bool) -> MutationOutcome | None:
    if not cat.events:
        return None
    index = rng.choice(cat.events)
    batch = [cat.parse(index)]
    frame = encode_frame(RECORD_BATCH, batch)
    if truncate:
        cut = rng.randrange(1, len(frame))
        mutated = frame[:cut]
        edit = {"op": "wire_truncate", "record_line": index,
                "byte": cut}
    else:
        pos = rng.randrange(len(frame))
        flip = bytes([frame[pos] ^ (1 << rng.randrange(8))])
        mutated = frame[:pos] + flip + frame[pos + 1:]
        edit = {"op": "wire_corrupt", "record_line": index,
                "byte": pos}
    operator = edit["op"]
    try:
        kind, payload, consumed = decode_frame(mutated)
    except ProtocolError as exc:
        return MutationOutcome(0, operator, [edit], True,
                               CHANNEL_WIRE, str(exc))
    except TransportError as exc:
        # The stream ends mid-frame: a receiver treats this as a
        # disconnect, never as a delivered record.
        return MutationOutcome(0, operator, [edit], True,
                               CHANNEL_WIRE, f"truncated: {exc}")
    if consumed != len(frame) or payload != batch:
        return MutationOutcome(0, operator, [edit], True,
                               CHANNEL_WIRE, "frame not delivered intact")
    # The flip round-tripped to the identical record (it landed in a
    # JSON-insignificant byte and the CRC still matched) — impossible
    # with CRC32 over a single-bit flip, so reaching here is a bug.
    return MutationOutcome(0, operator, [edit], False, None,
                           "corrupted frame decoded successfully")


# ---------------------------------------------------------------------------
# The campaign driver.


def _stock_audit_fn(app, config):
    """The stock audit of a bundle file (the default ``audit_fn``), the
    road ``repro audit`` takes: a reader into the one epoch loop.
    Returns (accepted, reason); a record the reader refused — the
    loop's ``malformed_bundle`` verdict — is raised as the
    :class:`MalformedBundle` it was, the fuzzer's ``load`` channel."""
    def run(path):
        with BundleReader.open(path) as reader:
            result = Auditor(app, config).audit_stream(reader)
        if result.reason is RejectReason.MALFORMED_BUNDLE:
            raise MalformedBundle(result.detail)
        reason = None
        if not result.accepted:
            reason = result.reason.value if result.reason else "rejected"
            if result.detail:
                reason += f": {result.detail}"
        return result.accepted, reason
    return run


def _test_mutation(data: bytes, audit_fn, workdir: str):
    """Audit mutated bundle bytes; (rejected, channel, reason)."""
    path = os.path.join(workdir, "mutated.jsonl")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        accepted, reason = audit_fn(path)
    except MalformedBundle as exc:
        return True, CHANNEL_LOAD, str(exc)
    if accepted:
        return False, None, None
    return True, CHANNEL_AUDIT, reason


def shrink_edits(edits: list[dict], accepts) -> list[dict]:
    """ddmin: a minimal edit subset for which ``accepts`` still holds.

    ``accepts(subset)`` must be True for the full list (the failure
    being shrunk: the audit ACCEPTed the mutation).
    """
    current = list(edits)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and accepts(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def fuzz_bundle(
    bundle_path: str,
    app,
    *,
    config: AuditConfig | None = None,
    mutations: int = 100,
    seed: int = 0,
    operators: tuple[str, ...] | None = None,
    splice_with: str | None = None,
    shrink: bool = True,
    edits_per_mutation: int = 3,
    audit_fn=None,
    progress=None,
) -> FuzzReport:
    """Run a tamper campaign of ``mutations`` randomized mutations.

    Each mutation derives its randomness from ``(seed, index)`` alone
    (replayable), applies 1..``edits_per_mutation`` edits from one
    randomly chosen operator family, and must be rejected by the stock
    audit of the mutated file (``audit_fn(path) -> (accepted, reason)``
    overrides it for testing).
    ``splice_with`` names a donor bundle for cross-bundle epoch
    splicing (without it, splices swap epochs within the bundle).
    """
    with open(bundle_path, "rb") as fh:
        lines = fh.read().splitlines()
    catalog = _Catalog(lines)
    donor = None
    if splice_with is not None:
        with open(splice_with, "rb") as fh:
            donor = _Catalog(fh.read().splitlines())
    chosen_ops = tuple(operators) if operators else ALL_OPERATORS
    for name in chosen_ops:
        if name not in ALL_OPERATORS:
            raise ValueError(f"unknown tamper operator {name!r}")
    if audit_fn is None:
        audit_fn = _stock_audit_fn(app, config or AuditConfig())

    report = FuzzReport(bundle=bundle_path, mutations=mutations,
                        seed=seed)
    started = _time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as workdir:
        for index in range(mutations):
            rng = random.Random((seed << 24) ^ index)
            outcome = _one_mutation(
                index, rng, catalog, donor, chosen_ops,
                edits_per_mutation, audit_fn, workdir,
            )
            if not outcome.rejected and shrink and outcome.edits:
                def accepts(subset):
                    data = apply_edits(catalog.lines, subset)
                    rejected, _, _ = _test_mutation(
                        data, audit_fn, workdir
                    )
                    return not rejected
                outcome.shrunk = shrink_edits(outcome.edits, accepts)
            report.outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    report.elapsed_seconds = _time.perf_counter() - started
    return report


def _one_mutation(index, rng, catalog, donor, chosen_ops,
                  edits_per_mutation, audit_fn, workdir):
    """Pick an applicable operator, build its edits, test them."""
    # Extra edits stay inside the campaign's operators, so a restricted
    # campaign replays the same whatever families exist beside it.
    file_pool = tuple(op for op in chosen_ops if op in FILE_OPERATORS)
    for _attempt in range(16):
        operator = chosen_ops[rng.randrange(len(chosen_ops))]
        if operator in WIRE_OPERATORS:
            outcome = _wire_outcome(
                catalog, rng, truncate=(operator == "wire_truncate")
            )
            if outcome is None:
                continue
            outcome.index = index
            return outcome
        edits = _file_edits(catalog, donor, rng, operator,
                            edits_per_mutation, file_pool)
        if edits is None:
            continue
        data = apply_edits(catalog.lines, edits)
        rejected, channel, reason = _test_mutation(
            data, audit_fn, workdir
        )
        return MutationOutcome(index, operator, edits, rejected,
                               channel, reason)
    raise RuntimeError(
        "no tamper operator applies to this bundle (is it empty?)"
    )


def _file_edits(catalog, donor, rng, operator, edits_per_mutation, pool):
    """1..N edits: the named operator first, then optional extra draws
    from ``pool``, the campaign's file operators (multi-edit mutations
    give the shrinker real work when one slips through)."""
    if operator == "splice_epochs":
        return _choose_splice_epochs(catalog, rng, donor)
    chooser = _FILE_CHOOSERS[operator]
    edits = chooser(catalog, rng)
    if edits is None:
        return None
    extra_budget = rng.randrange(edits_per_mutation)
    # Truncation composes badly (it hides the other edits); keep
    # truncate mutations single-edit.
    if operator == "truncate_tail":
        extra_budget = 0
    for _ in range(extra_budget):
        name = pool[rng.randrange(len(pool))]
        if name in ("truncate_tail", "splice_epochs"):
            continue
        more = _FILE_CHOOSERS[name](catalog, rng)
        if not more:
            continue
        taken = {(e.get("line"), e["op"]) for e in edits}
        if any((e.get("line"), e["op"]) in taken for e in more):
            continue  # two rewrites of one line cannot both apply
        edits.extend(more)
    return edits
