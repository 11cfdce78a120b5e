"""Streaming scenario generator: bounded-memory traffic synthesis.

The generator simulates a large user population (``spec.users``, a
million by default) as a *bounded pool* of concurrently active session
state machines: at any moment at most ``spec.max_sessions`` sessions
are live, each planned up front as a JSON-able dict, so memory is
O(pool + epoch), never O(trace).  User activity is Zipf-skewed via
log-uniform rank sampling (O(1) per pick — no million-entry weight
table), and each app's data population comes from the same
``population(scale)`` its workload factory uses, so a synthesized
bundle audits under plain ``--workload NAME --scale X``.

Synthesis serves the stream epoch by epoch through a fresh
:class:`~repro.server.executor.Executor` per batch whose initial state
chains from the previous batch's final state — the same §4.1
continuous-operation contract the audit session verifies — and writes
each epoch through :class:`~repro.io.BundleWriter` (segmented layout)
as soon as it is served.  One shared :class:`NondetSource` /
:class:`RandomScheduler` pair spans all batches so time, ``uniqid``
and scheduling stay continuous; everything (generator pool, PRNGs,
server state) serializes into a checkpoint, making multi-hour runs
resumable mid-stream with a bit-identical suffix.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import asdict, dataclass, field

from repro.apps import minicart, minicrp, miniforum, miniwiki
from repro.core import Auditor
from repro.core.config import AuditConfig
from repro.core.profile import group_profile
from repro.io import BundleWriter, state_from_json, state_to_json
from repro.server.app import Application
from repro.server.executor import Executor
from repro.server.nondet import NondetSource
from repro.server.scheduler import RandomScheduler
from repro.trace.events import Request
from repro.workloads import cart as cart_mod
from repro.workloads import forum as forum_mod
from repro.workloads import hotcrp as hotcrp_mod
from repro.workloads import wiki as wiki_mod
from repro.workloads.zipf import zipf_sample

CHECKPOINT_FORMAT = "ssco-synth-checkpoint"
CHECKPOINT_VERSION = 1

#: Canonical workload names the factory synthesizes for.
WORKLOADS = ("wiki", "forum", "hotcrp", "cart")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a synthesized stream, bit for bit."""

    workload: str = "cart"
    requests: int = 10_000
    scale: float = 0.05
    seed: int = 0
    #: Simulated user population (rank-skewed activity).
    users: int = 1_000_000
    #: Bound on concurrently active session state machines.
    max_sessions: int = 64
    #: Requests served (and written) per epoch batch.
    epoch_size: int = 500
    #: Server's max in-flight requests within a batch.
    concurrency: int = 8

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown scenario workload {self.workload!r} "
                f"(expected one of {', '.join(WORKLOADS)})"
            )
        if self.requests < 1:
            raise ValueError("spec.requests must be positive")
        if self.epoch_size < 1:
            raise ValueError("spec.epoch_size must be positive")
        if self.max_sessions < 1:
            raise ValueError("spec.max_sessions must be positive")
        if self.users < 1:
            raise ValueError("spec.users must be positive")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> ScenarioSpec:
        return cls(**data)


def build_scenario_app(workload: str, scale: float) -> Application:
    """The app a synthesized bundle runs against — built from the same
    ``population(scale)`` the workload factories use, so audit/fuzz can
    rebuild it from ``--workload``/``--scale`` alone."""
    if workload == "wiki":
        return miniwiki.build_app(
            pages=wiki_mod.population(scale)["pages"]
        )
    if workload == "forum":
        return miniforum.build_app(
            topics=forum_mod.population(scale)["topics"]
        )
    if workload == "hotcrp":
        return minicrp.build_app()
    if workload == "cart":
        pop = cart_mod.population(scale)
        return minicart.build_app(
            products=pop["products"], stock=pop["stock"]
        )
    raise ValueError(f"unknown scenario workload {workload!r}")


# ---------------------------------------------------------------------------
# Per-app session models.  A session is a JSON-able dict
# {"steps": [...], "pos": int, ...}: the whole plan is drawn at
# creation, so (steps, pos) captures all remaining behaviour — which is
# what makes checkpoints exact.


class _CartModel:
    prefix = "s"
    label = "Cart/Checkout"

    def population(self, scale: float) -> dict:
        return cart_mod.population(scale)

    def new_session(self, rng: random.Random, user: int, pop: dict,
                    serial: int, extras: dict) -> dict:
        return cart_mod.new_session(rng, user, pop["products"], serial)

    def request(self, session: dict, rid: str, extras: dict) -> Request:
        return cart_mod.session_request(session, rid)


class _WikiModel:
    prefix = "w"
    label = "MediaWiki"

    def population(self, scale: float) -> dict:
        return wiki_mod.population(scale)

    def new_session(self, rng: random.Random, user: int, pop: dict,
                    serial: int, extras: dict) -> dict:
        titles = pop["titles"]
        picks = zipf_sample(rng, titles, wiki_mod.ZIPF_BETA, 6)
        steps: list[list] = []
        for index in range(rng.randint(1, 6)):
            title = picks[index % len(picks)]
            roll = rng.random()
            if roll < 0.03:
                editor = rng.randrange(pop["editors"])
                steps.append(["edit", title, editor, serial])
            elif roll < 0.05:
                steps.append(["list"])
            elif roll < 0.06:
                steps.append(["search", title[:6]])
            elif roll < 0.07:
                steps.append(["history", title])
            elif roll < 0.075:
                steps.append(["random"])
            else:
                steps.append(["view", title])
        return {"user": user, "steps": steps, "pos": 0}

    def request(self, session: dict, rid: str, extras: dict) -> Request:
        step = session["steps"][session["pos"]]
        op = step[0]
        if op == "edit":
            _, title, editor, serial = step
            return Request(
                rid, "wiki_edit.php", get={"title": title},
                post={"body": f"Edited body of {title}, session "
                              f"{serial}. ''Synthesized''.",
                      "summary": f"synth edit {serial}"},
                cookies={"sess": f"editor{editor}"},
            )
        if op == "list":
            return Request(rid, "wiki_list.php")
        if op == "search":
            return Request(rid, "wiki_search.php", get={"q": step[1]})
        if op == "history":
            return Request(rid, "wiki_history.php",
                           get={"title": step[1]})
        if op == "random":
            return Request(rid, "wiki_random.php")
        return Request(rid, "wiki_view.php", get={"title": step[1]})


class _ForumModel:
    prefix = "f"
    label = "phpBB"

    def population(self, scale: float) -> dict:
        return forum_mod.population(scale)

    def new_session(self, rng: random.Random, user: int, pop: dict,
                    serial: int, extras: dict) -> dict:
        topics = zipf_sample(rng, pop["topic_ids"], 1.0, 5)
        registered = rng.random() < forum_mod.REGISTERED_RATIO
        name = pop["users"][user % len(pop["users"])]
        steps: list[list] = []
        if registered:
            steps.append(["login", name])
            for index in range(rng.randint(1, 4)):
                topic = topics[index % len(topics)]
                if rng.random() < 0.3:
                    steps.append(["reply", topic, name, serial])
                else:
                    steps.append(["view", topic, name])
        else:
            for index in range(rng.randint(1, 4)):
                if rng.random() < 0.08:
                    steps.append(["topics", None])
                else:
                    steps.append(["view", topics[index % len(topics)],
                                  None])
        return {"user": user, "steps": steps, "pos": 0}

    def request(self, session: dict, rid: str, extras: dict) -> Request:
        step = session["steps"][session["pos"]]
        op = step[0]
        if op == "login":
            return Request(rid, "forum_login.php",
                           post={"name": step[1]},
                           cookies={"sess": step[1]})
        if op == "reply":
            _, topic, name, serial = step
            return Request(
                rid, "forum_reply.php", get={"t": str(topic)},
                post={"body": f"Synthesized reply {serial} to topic "
                              f"{topic}: works for me."},
                cookies={"sess": name},
            )
        if op == "topics":
            cookies = {"sess": step[1]} if step[1] else {}
            return Request(rid, "forum_topics.php", cookies=cookies)
        _, topic, name = step
        cookies = {"sess": name} if name else {}
        return Request(rid, "forum_view.php", get={"t": str(topic)},
                       cookies=cookies)


class _HotcrpModel:
    prefix = "c"
    label = "HotCRP"

    def population(self, scale: float) -> dict:
        return hotcrp_mod.population(scale)

    def new_session(self, rng: random.Random, user: int, pop: dict,
                    serial: int, extras: dict) -> dict:
        steps: list[list] = []
        if rng.random() < 0.4:
            email = f"author{user % 997:03d}@inst.edu"
            steps.append(["login", email, "author"])
            steps.append(["submit", serial])
            extras["submits"] = extras.get("submits", 0) + 1
        else:
            email = pop["reviewers"][user % len(pop["reviewers"])]
            steps.append(["login", email, "reviewer"])
            known = max(1, extras.get("submits", 0))
            for index in range(rng.randint(1, 4)):
                pid = rng.randint(1, known)
                roll = rng.random()
                if roll < 0.25:
                    steps.append(["review", pid, rng.randint(1, 5),
                                  serial])
                elif roll < 0.35:
                    steps.append(["list"])
                else:
                    steps.append(["paper", pid])
        return {"user": user, "steps": steps, "pos": 0}

    def request(self, session: dict, rid: str, extras: dict) -> Request:
        step = session["steps"][session["pos"]]
        op = step[0]
        email = None
        for candidate in session["steps"]:
            if candidate[0] == "login":
                email = candidate[1]
        cookies = {"sess": email} if email else {}
        if op == "login":
            return Request(rid, "crp_login.php",
                           post={"email": step[1], "role": step[2]},
                           cookies=cookies)
        if op == "submit":
            serial = step[1]
            return Request(
                rid, "crp_submit.php",
                post={"title": f"Synthesized Paper {serial}",
                      "abstract": f"We synthesize workload {serial}."},
                cookies=cookies,
            )
        if op == "review":
            _, pid, score, serial = step
            return Request(
                rid, "crp_review.php", get={"p": str(pid)},
                post={"body": f"Synthesized review {serial} of paper "
                              f"{pid}: solid work.",
                      "score": str(score)},
                cookies=cookies,
            )
        if op == "list":
            return Request(rid, "crp_list.php", cookies=cookies)
        return Request(rid, "crp_paper.php", get={"p": str(step[1])},
                       cookies=cookies)


_MODELS = {
    "wiki": _WikiModel(),
    "forum": _ForumModel(),
    "hotcrp": _HotcrpModel(),
    "cart": _CartModel(),
}


def _rng_state_to_json(rng: random.Random) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _rng_state_from_json(state: list) -> tuple:
    version, internal, gauss = state
    return (version, tuple(internal), gauss)


class TrafficStream:
    """The bounded-pool request stream for one :class:`ScenarioSpec`.

    Deterministic from ``spec.seed``; :meth:`checkpoint` captures the
    complete generator state (PRNG, live sessions, counters) as a
    JSON-able dict, and constructing a stream from that checkpoint
    continues the exact request sequence.
    """

    def __init__(self, spec: ScenarioSpec, state: dict | None = None):
        self.spec = spec
        self.model = _MODELS[spec.workload]
        self.pop = self.model.population(spec.scale)
        if state is None:
            self._rng = random.Random(spec.seed)
            self.emitted = 0
            self.serial = 0
            self.sessions: list[dict] = []
            self.extras: dict = {}
        else:
            self._rng = random.Random()
            self._rng.setstate(_rng_state_from_json(state["rng"]))
            self.emitted = int(state["emitted"])
            self.serial = int(state["serial"])
            self.sessions = [dict(s) for s in state["sessions"]]
            self.extras = dict(state["extras"])

    @property
    def exhausted(self) -> bool:
        return self.emitted >= self.spec.requests

    def _next(self) -> Request:
        rng = self._rng
        spec = self.spec
        if not self.sessions or (
            len(self.sessions) < spec.max_sessions
            and rng.random() < 0.5
        ):
            self.serial += 1
            # Log-uniform rank: approximate Zipf activity skew over a
            # population too large for a weight table.
            user = int(spec.users ** rng.random()) - 1
            self.sessions.append(self.model.new_session(
                rng, user, self.pop, self.serial, self.extras
            ))
        session = self.sessions[rng.randrange(len(self.sessions))]
        rid = f"{self.model.prefix}{self.emitted:08d}"
        request = self.model.request(session, rid, self.extras)
        session["pos"] += 1
        if session["pos"] >= len(session["steps"]):
            self.sessions.remove(session)
        self.emitted += 1
        return request

    def take(self, count: int) -> list[Request]:
        """Up to ``count`` further requests (bounded by the spec)."""
        batch: list[Request] = []
        while len(batch) < count and not self.exhausted:
            batch.append(self._next())
        return batch

    def __iter__(self):
        while not self.exhausted:
            yield self._next()

    def checkpoint(self) -> dict:
        return {
            "rng": _rng_state_to_json(self._rng),
            "emitted": self.emitted,
            "serial": self.serial,
            "sessions": [dict(s) for s in self.sessions],
            "extras": dict(self.extras),
        }


# ---------------------------------------------------------------------------
# Bundle synthesis.


@dataclass
class SynthProgress:
    """Per-epoch progress callback payload."""

    epoch: int
    requests: int
    events: int
    elapsed_seconds: float
    verified: bool | None = None
    profile_groups: int = field(default=0)


def synthesize(
    spec: ScenarioSpec,
    out_path: str,
    *,
    profile_path: str | None = None,
    checkpoint: dict | None = None,
    checkpoint_path: str | None = None,
    config: AuditConfig | None = None,
    progress=None,
) -> dict:
    """Stream ``spec.requests`` synthesized requests into ``out_path``.

    Serves the traffic epoch by epoch (each batch's initial state
    chained from the previous batch's final state) and writes each
    epoch through a segmented :class:`BundleWriter` the moment it
    completes — peak memory is one epoch, not the trace.

    ``profile_path`` additionally feeds every epoch through an
    incremental :class:`AuditSession` (so the bundle is *verified*
    ACCEPTED as it is generated) and writes the per-group (n, α, ℓ)
    profile JSON there.  ``checkpoint`` resumes a previous run's
    returned/saved checkpoint: the new bundle's initial state is the
    old run's final state and the request stream continues exactly
    where it stopped.  ``checkpoint_path`` saves this run's final
    checkpoint for the next resume.

    Returns a JSON-able summary (the ``repro synth --json`` payload,
    minus the paths the CLI adds).
    """
    import json as _json

    app = build_scenario_app(spec.workload, spec.scale)
    nondet = NondetSource(seed=spec.seed + 20171028)
    scheduler = RandomScheduler(spec.seed + 1)
    state = None
    stream_state = None
    epoch_base = 0
    if checkpoint is not None:
        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a scenario-factory checkpoint")
        if checkpoint.get("spec", {}).get("workload") != spec.workload:
            raise ValueError(
                "checkpoint workload "
                f"{checkpoint.get('spec', {}).get('workload')!r} does "
                f"not match spec workload {spec.workload!r}"
            )
        nondet.setstate(checkpoint["nondet"])
        scheduler.setstate(checkpoint["scheduler"])
        state = state_from_json(checkpoint["state"])
        stream_state = checkpoint["stream"]
        epoch_base = int(checkpoint.get("epochs_emitted", 0))
        # The resumed stream keeps its global counters but obeys THIS
        # spec's request budget on top of what it already emitted.
        already = int(stream_state["emitted"])
        spec = ScenarioSpec(**{**spec.to_json(),
                               "requests": already + spec.requests})
    stream = TrafficStream(spec, state=stream_state)

    session = None
    verified: bool | None = None
    audit_config = config or AuditConfig()
    started = _time.perf_counter()
    epoch = 0
    events = 0
    requests = 0
    groups = 0
    first_initial = None
    with BundleWriter(out_path, autoflush=False) as writer:
        while not stream.exhausted:
            batch = stream.take(spec.epoch_size)
            if not batch:
                break
            executor = Executor(
                app,
                scheduler=scheduler,
                max_concurrency=spec.concurrency,
                nondet=nondet,
                record=True,
                initial_state=state,
            )
            result = executor.serve(batch)
            if epoch == 0:
                first_initial = result.initial_state
                writer.write_state(first_initial)
                if profile_path is not None:
                    session = Auditor(app, audit_config).session(
                        first_initial
                    )
            reports = result.reports
            # Epoch-qualified group tags: a monolithic read of the
            # segmented bundle must still partition cleanly (groups
            # never span epochs — the executor does the same when it
            # cuts its own epochs).
            reports.groups = {
                f"e{epoch_base + epoch}:{tag}": rids
                for tag, rids in reports.groups.items()
            }
            writer.write_epoch(result.trace, reports)
            if session is not None:
                epoch_result = session.feed_epoch(result.trace, reports)
                if not epoch_result.accepted:
                    verified = False
            groups += len(reports.groups)
            events += len(result.trace)
            requests += len(batch)
            state = result.final_state
            epoch += 1
            if progress is not None:
                progress(SynthProgress(
                    epoch=epoch, requests=requests, events=events,
                    elapsed_seconds=_time.perf_counter() - started,
                    verified=verified,
                ))
        writer.write_end()

    profile = None
    if session is not None:
        final = session.close()
        if verified is None:
            verified = bool(final.accepted)
        profile = group_profile(final.stats, meta={
            "workload": spec.workload,
            "scale": spec.scale,
            "seed": spec.seed,
            "requests": requests,
            "epochs": epoch,
            "bundle": out_path,
        })
        with open(profile_path, "w") as fh:
            _json.dump(profile, fh, indent=2, sort_keys=True)
            fh.write("\n")

    elapsed = _time.perf_counter() - started
    summary: dict = {
        "workload": spec.workload,
        "label": _MODELS[spec.workload].label,
        "scale": spec.scale,
        "seed": spec.seed,
        "users": spec.users,
        "requests": requests,
        "epochs": epoch,
        "events": events,
        "groups": groups,
        "epoch_size": spec.epoch_size,
        "elapsed_seconds": elapsed,
        "requests_per_second": (
            requests / elapsed if elapsed > 0 else 0.0
        ),
        "resumed": checkpoint is not None,
        "verified": verified,
        "profile_groups": profile["groups"] if profile else None,
    }

    if checkpoint_path is not None:
        snapshot = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "spec": spec.to_json(),
            "stream": stream.checkpoint(),
            "nondet": nondet.getstate(),
            "scheduler": scheduler.getstate(),
            "state": state_to_json(state) if state is not None else None,
            "requests_emitted": stream.emitted,
            "epochs_emitted": epoch_base + epoch,
        }
        with open(checkpoint_path, "w") as fh:
            _json.dump(snapshot, fh)
            fh.write("\n")
    return summary
