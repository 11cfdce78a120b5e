"""External-request verification (the §5.5 extension).

"All of the applications we surveyed make requests of an email server.
We could verify those requests ... with a modest addition to OROCHI,
namely treating external requests as another kind of response."

The collector captures outbound externals; re-execution regenerates them;
the verifier compares per request, in order.
"""

from __future__ import annotations

import pytest

from repro.common.errors import AuditReject, RejectReason
from repro.core import ooo_audit, simple_audit, ssco_audit
from repro.core.patch import patch_audit
from repro.server import Application, Executor, RandomScheduler
from repro.server.faulty import tamper_nondet_value, tamper_response
from repro.trace.events import Event, ExternalRequest
from repro.trace.trace import Trace, check_balanced

APP_SRC = {
    "signup.php": """
$email = post_param('email');
if (is_null($email) || strpos($email, '@') === false) {
  echo "bad email";
  return;
}
db_exec("INSERT INTO users (email) VALUES (" . sql_quote($email) . ")");
send_email($email, "Welcome!", "Hello " . $email . ", your account is ready.");
echo "signed up: ", $email;
""",
    "notify_all.php": """
$rows = db_query("SELECT email FROM users ORDER BY id");
foreach ($rows as $row) {
  send_email($row['email'], "Update", "Maintenance tonight.");
}
echo count($rows), " notifications sent";
""",
}

SCHEMA = "CREATE TABLE users (id INT PRIMARY KEY AUTOINCREMENT, email TEXT)"


@pytest.fixture
def app():
    return Application.from_sources("mailer", APP_SRC, db_setup=SCHEMA)


@pytest.fixture
def run(app):
    from repro.trace.events import Request

    requests = [
        Request("s1", "signup.php", post={"email": "a@x.com"}),
        Request("s2", "signup.php", post={"email": "b@y.org"}),
        Request("s3", "signup.php", post={"email": "not-an-email"}),
        Request("n1", "notify_all.php"),
    ]
    return Executor(app, scheduler=RandomScheduler(3),
                    max_concurrency=2).serve(requests)


def test_externals_captured_in_trace(run):
    externals = run.trace.externals()
    assert len(externals["s1"]) == 1
    assert externals["s1"][0].service == "email"
    assert externals["s1"][0].content[0] == "a@x.com"
    assert "s3" not in externals  # validation failed: no email sent
    assert len(externals["n1"]) == 2  # both signed-up users notified


def test_trace_with_externals_is_balanced(run):
    check_balanced(run.trace)


def _honest_mailer(request):
    run = request.getfixturevalue("run")
    return (request.getfixturevalue("app"), run.trace, run.reports,
            run.initial_state, None)


def _implausible_roll(request):
    """A ``rand(1, 6)`` report rewritten to 7, the body edited to match:
    only the §4.6 plausibility check can see it."""
    from repro.trace.events import Request

    app = Application.from_sources("dice", {
        "roll.php": 'echo "lucky=", rand(1, 6);',
    })
    run = Executor(app).serve([Request("r1", "roll.php")])
    return (app, tamper_response(run.trace, "r1", "lucky=7"),
            tamper_nondet_value(run.reports, "r1", 0, 7),
            run.initial_state, RejectReason.NONDET_IMPLAUSIBLE)


@pytest.mark.parametrize("case", [_honest_mailer, _implausible_roll],
                         ids=["honest_externals", "implausible_nondet"])
def test_every_audit_gives_the_same_verdict(request, case):
    """The three audits share one front half, §4.6 checks included, and
    so does the patch audit's precondition."""
    app, trace, reports, initial, reason = case(request)
    for audit_fn in (ssco_audit, simple_audit, ooo_audit):
        result = audit_fn(app, trace, reports, initial)
        assert (result.accepted, result.reason) == (reason is None, reason), (
            audit_fn.__name__, result.detail)
    patched = patch_audit(app, app, trace, reports, initial)
    assert (patched.accepted_original, patched.reason) == (
        reason is None, reason)
    if reason is None:
        assert set(simple_audit(app, trace, reports, initial).phases) == {
            "trace_check", "proc_op_reports", "db_redo", "reexec",
            "output_compare", "total"}


def test_suppressed_email_detected(app, run):
    """The executor claims it sent nothing for s1 (deleted the EXTERNAL
    event): re-execution regenerates the email and the audit rejects."""
    events = [ev for ev in run.trace
              if not (ev.is_external and ev.rid == "s1")]
    result = ssco_audit(app, Trace(events), run.reports,
                        run.initial_state)
    assert not result.accepted
    assert result.reason is RejectReason.EXTERNAL_MISMATCH


def test_forged_email_content_detected(app, run):
    """The executor delivered a different email body (e.g. phishing)."""
    events = []
    for ev in run.trace:
        if ev.is_external and ev.rid == "s1":
            forged = ExternalRequest(
                "s1", "email",
                (ev.payload.content[0], "Welcome!",
                 "Click http://evil.example to verify."),
            )
            events.append(Event.external(forged, ev.time))
        else:
            events.append(ev)
    result = ssco_audit(app, Trace(events), run.reports,
                        run.initial_state)
    assert not result.accepted
    assert result.reason is RejectReason.EXTERNAL_MISMATCH


def test_injected_spam_detected(app, run):
    """The executor sent extra mail the program never asked for."""
    events = list(run.trace.events)
    # Insert right after s2's request event (inside its window).
    position = next(i for i, ev in enumerate(events)
                    if ev.is_request and ev.rid == "s2") + 1
    spam = ExternalRequest("s2", "email",
                           ("victim@z.net", "spam", "buy things"))
    events.insert(position, Event.external(spam, None))
    # Re-time: collector order is what matters; rebuild times.
    rebuilt = Trace()
    for ev in events:
        rebuilt.append(Event(ev.kind, ev.rid, ev.payload,
                             len(rebuilt.events)))
    result = ssco_audit(app, rebuilt, run.reports, run.initial_state)
    assert not result.accepted
    assert result.reason is RejectReason.EXTERNAL_MISMATCH


def test_external_outside_request_window_rejected(app, run):
    """An EXTERNAL event for a request that already completed cannot be
    attributed to it: the trace is not balanced."""
    events = list(run.trace.events)
    late = ExternalRequest("s1", "email", ("x@y.z", "late", "late"))
    events.append(Event.external(late, 1e9))
    with pytest.raises(AuditReject) as exc:
        check_balanced(Trace(events))
    assert exc.value.reason is RejectReason.TRACE_UNBALANCED


def test_reordered_externals_within_request_detected(app, run):
    """Order matters: swapping n1's two notifications is a mismatch."""
    indices = [i for i, ev in enumerate(run.trace.events)
               if ev.is_external and ev.rid == "n1"]
    assert len(indices) == 2
    events = list(run.trace.events)
    events[indices[0]], events[indices[1]] = (
        events[indices[1]], events[indices[0]],
    )
    result = ssco_audit(app, Trace(events), run.reports,
                        run.initial_state)
    assert not result.accepted
    assert result.reason is RejectReason.EXTERNAL_MISMATCH


def test_externals_grouped_reexecution(app):
    """Several same-flow requests with externals re-execute as one group;
    per-slot contents still compared individually."""
    from repro.trace.events import Request

    requests = [
        Request(f"g{i}", "signup.php", post={"email": f"user{i}@x.com"})
        for i in range(5)
    ]
    run = Executor(app).serve(requests)
    result = ssco_audit(app, run.trace, run.reports, run.initial_state)
    assert result.accepted
    assert result.stats["grouped_requests"] == 5
    assert result.stats["fallback_requests"] == 0


def test_email_inside_transaction_forbidden():
    app = Application.from_sources("bad", {
        "t.php": """
db_begin();
send_email('a@b.c', 's', 'b');
db_commit();
""",
    }, db_setup=SCHEMA)
    from repro.trace.events import Request

    run = Executor(app).serve([Request("r1", "t.php")])
    # The executor catches the WeblangError and serves the 500 page.
    from repro.server.executor import ERROR_BODY

    assert run.trace.responses()["r1"].body == ERROR_BODY
