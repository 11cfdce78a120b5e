"""Control-flow digests and the error taxonomy."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.common.digest import (
    _FNV_PRIME,
    _MASK,
    FlowDigest,
    branch_mix,
    fnv1a,
)
from repro.common.errors import (
    AuditReject,
    DivergenceError,
    MultivalueFallback,
    RejectReason,
)


def test_fresh_digests_equal():
    assert FlowDigest().value == FlowDigest().value


def test_update_changes_value():
    digest = FlowDigest()
    before = digest.value
    digest.update("if", 5)
    assert digest.value != before


def test_same_sequence_same_digest():
    a, b = FlowDigest(), FlowDigest()
    for d in (a, b):
        d.update_str("s.php")
        d.update("if", 3)
        d.update("loop", 7)
        d.update("loopx", 7)
    assert a.hexdigest() == b.hexdigest()


def test_order_sensitivity():
    a, b = FlowDigest(), FlowDigest()
    a.update("if", 1)
    a.update("if", 2)
    b.update("if", 2)
    b.update("if", 1)
    assert a.value != b.value


def test_kind_sensitivity():
    a, b = FlowDigest(), FlowDigest()
    a.update("if", 1)
    b.update("loop", 1)
    assert a.value != b.value


def test_hexdigest_format():
    digest = FlowDigest()
    digest.update("tern", 9)
    assert len(digest.hexdigest()) == 16
    int(digest.hexdigest(), 16)


@given(st.lists(st.tuples(st.sampled_from(["if", "loop", "tern", "sc"]),
                          st.integers(min_value=0, max_value=10**6)),
                min_size=1, max_size=30))
def test_digest_deterministic(updates):
    a, b = FlowDigest(), FlowDigest()
    for kind, target in updates:
        a.update(kind, target)
        b.update(kind, target)
    assert a.value == b.value


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_target_collision_resistance(x, y):
    if x == y:
        return
    a, b = FlowDigest(), FlowDigest()
    a.update("if", x)
    b.update("if", y)
    assert a.value != b.value


@given(st.text(max_size=12),
       st.lists(st.tuples(st.sampled_from(["if", "loop", "loopx", "tern",
                                           "sc"]),
                          st.integers(min_value=0, max_value=10**6)),
                max_size=30))
def test_inline_fold_of_premixed_constants_is_the_digest(name, updates):
    """What the compiled engine does instead of calling ``update``:
    start from the script name's hash, fold ``branch_mix`` constants
    into a plain int."""
    digest = FlowDigest()
    digest.update_str(name)
    flow = fnv1a(name.encode())
    for kind, target in updates:
        digest.update(kind, target)
        flow = ((flow ^ branch_mix(kind, target)) * _FNV_PRIME) & _MASK
    assert f"{flow:016x}" == digest.hexdigest()


def test_fnv1a_known_value():
    # FNV-1a 64-bit of empty input is the offset basis.
    assert fnv1a(b"") == 0xCBF29CE484222325


def test_audit_reject_message():
    err = AuditReject(RejectReason.OUTPUT_MISMATCH, "request r1")
    assert "output_mismatch" in str(err)
    assert "request r1" in str(err)
    assert err.reason is RejectReason.OUTPUT_MISMATCH


def test_audit_reject_without_detail():
    err = AuditReject(RejectReason.ORDERING_CYCLE)
    assert str(err) == "ordering_cycle"


def test_divergence_and_fallback_are_distinct():
    assert not issubclass(DivergenceError, MultivalueFallback)
    assert not issubclass(MultivalueFallback, DivergenceError)


def test_reject_reasons_unique():
    values = [reason.value for reason in RejectReason]
    assert len(values) == len(set(values))
