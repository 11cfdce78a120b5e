"""The tamper fuzzer: every operator's mutations are REJECTED by the
stock audit, and the shrinker minimizes a planted ACCEPT-on-tamper."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.scenarios import fuzz_bundle, shrink_edits
from repro.scenarios.fuzz import (
    ALL_OPERATORS,
    FILE_OPERATORS,
    WIRE_OPERATORS,
    apply_edits,
)
from repro.scenarios.generator import build_scenario_app

FIXTURE = str(pathlib.Path(__file__).resolve().parent.parent
              / "data" / "cart_fixture.jsonl")


@pytest.fixture(scope="module")
def cart_app():
    return build_scenario_app("cart", 0.05)


def test_apply_edits_roundtrip():
    lines = [b'{"a": 1}', b'{"b": 2}', b'{"c": 3}']
    assert apply_edits(lines, []) == b'{"a": 1}\n{"b": 2}\n{"c": 3}\n'
    mutated = apply_edits(lines, [
        {"op": "delete_line", "line": 1},
        {"op": "replace_line", "line": 2, "text": '{"c": 9}'},
    ])
    assert mutated == b'{"a": 1}\n{"c": 9}\n'
    truncated = apply_edits(lines, [{"op": "truncate", "byte": 12}])
    assert truncated == b'{"a": 1}\n{"b'


@pytest.mark.parametrize("operator", ALL_OPERATORS)
def test_every_operator_rejected(cart_app, operator):
    report = fuzz_bundle(FIXTURE, cart_app, mutations=3, seed=1,
                         operators=(operator,), shrink=False)
    assert report.rejected == 3, [o.to_json() for o in report.accepted]
    for outcome in report.outcomes:
        assert outcome.operator == operator
        expected = "wire" if operator in WIRE_OPERATORS else None
        if expected:
            assert outcome.channel == expected


def test_campaign_all_rejected_and_replayable(cart_app):
    a = fuzz_bundle(FIXTURE, cart_app, mutations=25, seed=2,
                    shrink=False)
    assert a.rejected == 25
    payload = a.to_json()
    assert payload["all_rejected"] is True
    assert sum(payload["channels"].values()) == 25
    assert payload["accepted_mutations"] == []
    # Mutations derive from (seed, index) only: a rerun replays the
    # identical edits and verdict channels.
    b = fuzz_bundle(FIXTURE, cart_app, mutations=25, seed=2,
                    shrink=False)
    assert [o.edits for o in a.outcomes] == [o.edits for o in b.outcomes]
    assert ([o.channel for o in a.outcomes]
            == [o.channel for o in b.outcomes])


#: The operators as they stood before the forged-scalar family, and the
#: verdict channels of ``--mutations 500 --seed 0`` over them on the
#: fixture.  Extra edits are drawn from a campaign's own operators, so
#: this campaign replays mutation for mutation whatever families are
#: added beside it: a change that moves one of its mutations to another
#: channel (or to ACCEPT) moves these numbers.
BASELINE_OPERATORS = (
    "flip_response", "drop_event", "duplicate_event", "reorder_pair",
    "flip_op_log", "tamper_op_count", "flip_nondet", "tamper_state",
    "splice_epochs", "truncate_tail", "wire_corrupt", "wire_truncate",
)
BASELINE_CHANNELS = {"audit": 394, "load": 45, "wire": 61}
#: CPU seconds one mutation may take, load and audit together.  The
#: honest fixture audits in a few hundredths; a forged report scalar the
#: audit allocates by would take several seconds.
CPU_BUDGET = 1.0


def _timed_campaign(app, operators, seed=0):
    import time

    spent = []
    mark = [time.process_time()]

    def progress(outcome):
        now = time.process_time()
        spent.append((now - mark[0], outcome.operator, outcome.index))
        mark[0] = now

    report = fuzz_bundle(FIXTURE, app, mutations=500, seed=seed,
                         operators=operators, shrink=False,
                         progress=progress)
    assert max(spent)[0] < CPU_BUDGET, max(spent)
    return report


def test_acceptance_campaign_baseline_channels_unchanged(cart_app):
    report = _timed_campaign(cart_app, BASELINE_OPERATORS)
    assert report.rejected == 500, [o.to_json() for o in report.accepted]
    assert report.to_json()["channels"] == BASELINE_CHANNELS


def test_acceptance_campaign_with_forged_scalars(cart_app):
    """The deterministic acceptance campaign over every operator: all
    500 rejected, each inside the CPU budget; what the forged-scalar
    family adds lands on ``load`` (not an integer) or ``audit`` (huge,
    negative), and a hostile table or index alone on ``load``."""
    _check_full_campaign(cart_app, 0)


def test_acceptance_campaign_at_seed_1(cart_app):
    _check_full_campaign(cart_app, 1)


def _check_full_campaign(cart_app, seed):
    assert set(ALL_OPERATORS) - set(BASELINE_OPERATORS) == {
        "forge_op_count", "forge_opnum", "hostile_index"}
    report = _timed_campaign(cart_app, None, seed)
    assert report.rejected == 500, [o.to_json() for o in report.accepted]
    forged = [o for o in report.outcomes if o.operator.startswith("forge_")]
    assert {o.operator for o in forged} == {"forge_op_count", "forge_opnum"}
    assert {o.channel for o in forged} == {"load", "audit"}
    assert any("not an integer" in o.reason for o in forged)
    assert any(o.reason.startswith("log_missing_op") for o in forged)
    # (An extra edit earlier in the file may be rejected first.)
    hostile = [o for o in report.outcomes
               if o.operator == "hostile_index" and len(o.edits) == 1]
    assert hostile and {o.channel for o in hostile} == {"load"}
    wire = [o for o in report.outcomes if o.operator in WIRE_OPERATORS]
    assert report.to_json()["channels"]["wire"] == len(wire) > 0
    assert all(o.channel != "wire" for o in report.outcomes
               if o.operator in FILE_OPERATORS)


#: What the decoder says for each hostile-index mutant.
HOSTILE_SAYS = {
    "out_of_range": r"index \d+ is outside its table",
    "negative": r"index -\d+ is outside its table",
    "ragged_rows": r"row array .* is not rows of 4",
    "entry_type": r"(rid|func|op value) .*, not a (string|tuple)",
    "duplicate_rid": r"names a request twice",
}


def test_hostile_index_family_is_malformed_never_an_alias(cart_app):
    """Each hostile table or index is refused where the record is
    decoded — ``malformed_bundle`` on the ``load`` channel, saying what
    it found — never an ``IndexError``, and never read through the slot
    a negative index or a repeated rid would alias."""
    import re

    from repro.scenarios.fuzz import HOSTILE_INDEX

    assert set(HOSTILE_INDEX) == set(HOSTILE_SAYS)
    report = fuzz_bundle(FIXTURE, cart_app, mutations=60, seed=0,
                         operators=("hostile_index",), shrink=False,
                         edits_per_mutation=1)
    assert report.rejected == 60, [o.to_json() for o in report.accepted]
    said = set()
    for outcome in report.outcomes:
        assert outcome.channel == "load", outcome.to_json()
        assert "IndexError" not in outcome.reason
        matched = [name for name, says in HOSTILE_SAYS.items()
                   if re.search(says, outcome.reason)]
        assert matched, outcome.reason
        said.update(matched)
    assert said == set(HOSTILE_SAYS)


def test_flip_op_log_draws_each_branch_and_each_is_rejected(cart_app):
    """``flip_op_log`` rewrites one row's contents (a new value-table
    entry), its opnum or its rid; over a range of seeds each branch is
    drawn, each is REJECTED, and each for the reason its edit earns:
    the contents at CheckOp or at the versioned redo (or where a group
    then diverges), the opnum and the rid at CheckLogs."""
    with open(FIXTURE, "rb") as fh:
        lines = fh.read().splitlines()
    reasons = {}
    for seed in range(24):
        report = fuzz_bundle(FIXTURE, cart_app, mutations=1, seed=seed,
                             operators=("flip_op_log",), shrink=False,
                             edits_per_mutation=1)
        outcome, = report.outcomes
        assert outcome.rejected and outcome.channel == "audit", \
            outcome.to_json()
        edited = json.loads(outcome.edits[0]["text"])
        original = json.loads(lines[outcome.edits[0]["line"]])
        branch = ("rid" if "zz999999" in edited["rids"] else
                  "contents" if edited["values"] != original["values"]
                  else "opnum")
        reasons.setdefault(branch, set()).add(outcome.reason.split(":")[0])
    assert reasons.keys() == {"contents", "opnum", "rid"}
    assert reasons["opnum"] == {"log_bad_opnum"}
    assert reasons["rid"] == {"log_unknown_rid"}
    assert reasons["contents"] <= {"op_mismatch", "versioned_build_failed",
                                   "op_count_too_low", "group_diverged"}
    assert "op_mismatch" in reasons["contents"]


def test_campaign_through_the_cli_is_rejected(capsys):
    """The campaign certifies the road that ships: 200 mutations, each
    audited by ``repro audit FILE --json`` itself (the ``audit_fn`` seam
    takes the mutated file's path).  Every one is REJECTED with exit 1
    and a JSON verdict — none escapes as an exception."""
    from repro.__main__ import main

    def cli_audit(path):
        try:
            code = main(["audit", path, "--workload", "cart",
                         "--scale", "0.05", "--json"])
        except BaseException as escaped:  # SystemExit included
            pytest.fail(f"repro audit raised {escaped!r}")
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["accepted"] is (code == 0)
        assert code in (0, 1)
        return payload["accepted"], payload["reason"]

    report = fuzz_bundle(FIXTURE, None, mutations=200, seed=1,
                         shrink=False, audit_fn=cli_audit)
    assert report.rejected == 200, [o.to_json() for o in report.accepted]
    by_channel = report.to_json()["channels"]
    assert by_channel["load"] == 0 and by_channel["audit"] > 100
    reasons = {o.reason for o in report.outcomes if o.channel == "audit"}
    assert "malformed_bundle" in reasons and len(reasons) > 3


def test_unknown_operator_rejected(cart_app):
    with pytest.raises(ValueError, match="unknown tamper operator"):
        fuzz_bundle(FIXTURE, cart_app, mutations=1,
                    operators=("definitely_not_an_operator",))


def test_shrink_edits_ddmin_minimizes():
    edits = [{"op": "delete_line", "line": i} for i in range(8)]
    culprit = edits[5]

    def accepts(subset):
        return culprit in subset

    assert shrink_edits(edits, accepts) == [culprit]


def test_planted_accept_bug_is_shrunk(cart_app):
    # A deliberately broken audit that ACCEPTs everything: every file
    # mutation becomes a soundness violation, and the shrinker must cut
    # each multi-edit mutation down to a single-edit reproducer (with
    # an always-accepting audit any single edit reproduces).
    def broken_audit(path):
        return True, None

    report = fuzz_bundle(FIXTURE, cart_app, mutations=12, seed=3,
                         audit_fn=broken_audit,
                         operators=("flip_response", "drop_event",
                                    "flip_op_log"))
    accepted = report.accepted
    assert accepted, "planted bug must surface as ACCEPTed mutations"
    for outcome in accepted:
        assert outcome.shrunk is not None
        assert len(outcome.shrunk) == 1
        assert all(edit in outcome.edits for edit in outcome.shrunk)
    payload = report.to_json()
    assert payload["all_rejected"] is False
    assert len(payload["accepted_mutations"]) == len(accepted)


def test_planted_single_blindspot_bug(cart_app):
    # Subtler plant: the audit only misses response-body flips; every
    # other operator still rejects.  The fuzzer must pin the ACCEPTs on
    # exactly the blind operator.
    from repro.scenarios.fuzz import _stock_audit_fn
    from repro.core.config import AuditConfig

    stock = _stock_audit_fn(cart_app, AuditConfig())

    def blind_to_flips(path):
        accepted, reason = stock(path)
        if not accepted and reason and "output" in reason.lower():
            return True, None  # swallow output mismatches
        return accepted, reason

    report = fuzz_bundle(FIXTURE, cart_app, mutations=10, seed=4,
                         audit_fn=blind_to_flips,
                         operators=("flip_response", "drop_event"),
                         shrink=False)
    accepted_ops = {o.operator for o in report.accepted}
    assert "flip_response" in accepted_ops
    rejected_ops = {o.operator for o in report.outcomes if o.rejected}
    assert "drop_event" in rejected_ops


def test_report_schema(cart_app):
    report = fuzz_bundle(FIXTURE, cart_app, mutations=6, seed=5,
                         shrink=False)
    payload = report.to_json()
    assert set(payload) == {
        "bundle", "mutations", "seed", "rejected", "accepted",
        "all_rejected", "channels", "operators", "accepted_mutations",
        "elapsed_seconds",
    }
    assert set(payload["channels"]) == {"audit", "load", "wire"}
    for stats in payload["operators"].values():
        assert set(stats) == {"mutations", "rejected"}
    json.dumps(payload)  # must be JSON-able as-is


def test_operator_lists_are_disjoint():
    assert not set(FILE_OPERATORS) & set(WIRE_OPERATORS)
    assert set(ALL_OPERATORS) == set(FILE_OPERATORS) | set(WIRE_OPERATORS)
