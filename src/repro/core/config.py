"""The unified, validated audit configuration.

:class:`AuditConfig` is the one knob set, from the CLI to the worker
process: the phase engine, the epoch driver, the epoch work unit and
the forensic timeline all take it directly.

* every knob, documented once, on the field;
* **hard validation** at construction: nonsensical values (a negative
  ``workers``, a non-bool ``strict``, an unregistered ``backend``) raise
  :class:`ValueError` with a message naming the field — at the API
  boundary, not five frames deep in the pipeline;
* **serialization**: :meth:`to_json` / :meth:`from_json` (plain dicts)
  and :meth:`save` / :meth:`load` (files), so a deployment's audit
  configuration is a reviewable artifact (the CLI's ``--config
  audit.json``);
* **CLI binding**: :meth:`from_args` builds a config from an argparse
  namespace, layering explicit flags over an optional ``--config`` file.

``ssco_audit(app, trace, reports, state, **knobs)`` builds one from its
keywords; :class:`~repro.core.auditor.Auditor` takes one.  There is no
epoch-boundary knob: the recorder cuts epochs (``Executor(epoch_size=
...)``) and an audit follows the epochs it is handed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from repro.core.reexec import (
    DEFAULT_MAX_GROUP,
    default_backend,
    get_reexec_backend,
)


@dataclass(frozen=True)
class AuditConfig:
    """Every audit knob, validated at construction.

    Invalid values raise :class:`ValueError` immediately; an
    :class:`AuditConfig` that exists is safe to run.
    """

    #: Reject on in-group control-flow divergence (Figure 12 line 39)
    #: instead of demoting the group to per-request re-execution.
    strict: bool = True
    #: Read-query deduplication (§4.5).
    dedup: bool = True
    #: Multivalue collapse (§4.3) — ablation hook.
    collapse: bool = True
    #: Reject register reads with no logged write and no initial value
    #: (the paper's literal SimOp).
    strict_registers: bool = False
    #: Chunk re-execution groups beyond this size (§4.7).
    max_group_size: int = DEFAULT_MAX_GROUP
    #: On accept, compact the versioned stores into the next epoch's
    #: trusted initial state (§4.5 migration).
    migrate: bool = False
    #: Worker processes for group re-execution; 1 means serial.
    #: Parallel audits produce bit-identical bodies, and identical
    #: verdicts on honest executions; the parallel planner subdivides
    #: large groups, which in *strict* mode can narrow the window in
    #: which a bogus grouping's internal divergence is observed (see
    #: :mod:`repro.core.reexec`).
    workers: int = 1
    #: Audit epochs concurrently, this many at a time, as whole-epoch
    #: work units on one persistent process pool shared across the run
    #: (a redo-only state precompute materializes each epoch's initial
    #: state first); 1 keeps the serial epoch chain.  Results are
    #: bit-identical to the serial chain either way.  Only an epoch
    #: session (``Auditor.session`` / ``audit_epochs``) reads it.
    epoch_workers: int = 1
    #: Registered re-execution backend: ``"hybrid"`` (the compiled
    #: engine, the default), ``"interp"`` (the oracle), or anything added
    #: via ``register_reexec_backend``; ``"accinterp"`` / ``"compinterp"``
    #: are aliases of the compiled engine (``core/reexec.py``).  The
    #: default reads ``REPRO_BACKEND`` when the config is *constructed*,
    #: not when the module was imported.
    backend: str = dataclasses.field(default_factory=default_backend)
    #: Consult the static analyzer's divergence-hazard report
    #: (:func:`repro.lang.analysis.divergence_hazards`) during chunk
    #: planning: multi-request groups whose script is a known hazard are
    #: pre-demoted to singleton chunks instead of diverging at run time
    #: and being replayed one by one.  Only consulted by non-strict
    #: audits (strict treats divergence as a verdict); never changes
    #: produced bodies or verdicts.
    plan_hints: bool = False
    #: Audit a live stream from a remote publisher at ``HOST:PORT``
    #: (``repro audit --connect``) instead of a bundle file.
    connect: str | None = None
    #: Publish the recorded stream on ``HOST:PORT`` (``repro serve
    #: --listen``); port 0 binds an ephemeral port.
    listen: str | None = None
    #: Transport: bound on connecting + handshaking with the publisher
    #: (connection-refused is retried until it expires — the auditor
    #: may start before the recorder).  ``None`` waits forever.
    net_connect_timeout: float | None = 5.0
    #: Transport: on the audit side, give up after this long without a
    #: frame (the same role as the file reader's follow
    #: ``idle_timeout``); on the serve side, drop a subscriber that
    #: lags this long (it reconnects and resumes from the spool).
    #: ``None`` waits / blocks indefinitely.
    net_idle_timeout: float | None = 30.0
    #: Transport: resume attempts after a mid-stream disconnect before
    #: the audit fails (0 disables resume).
    net_retries: int = 3
    #: Transport (serve side): records per ``RECORD_BATCH`` wire frame;
    #: 1 reproduces the unbatched (one RECORD per frame) wire exactly.
    batch_records: int = 64
    #: Transport (serve side): flush the pending batch once its JSON
    #: payload reaches this many bytes, whatever the record count.
    batch_bytes: int = 256 * 1024
    #: Fleet: listen for ``repro worker`` daemons on ``HOST:PORT`` and
    #: fan epoch work units out to them (``repro audit
    #: --fleet-listen``); port 0 binds an ephemeral port.  ``None``
    #: keeps every epoch on this host.  Composes with ``connect``: one
    #: auditor can drive N worker hosts against one recorder.
    fleet_listen: str | None = None
    #: Fleet: wait for this many registered workers before dispatching
    #: the first epoch (0 dispatches to whoever has joined; with no
    #: workers at all, epochs run locally).
    fleet_min_workers: int = 0
    #: Fleet: overall per-epoch deadline on a worker; a straggler past
    #: it is dropped and its epoch re-dispatched.  ``None`` relies on
    #: heartbeat-miss detection alone.
    fleet_task_timeout: float | None = None
    #: Fleet: dispatch each epoch to this many workers and cross-check
    #: their verdicts (1 disables; a disagreement re-runs the epoch
    #: locally — the local chain arbitrates).
    fleet_redundancy: int = 1

    def __post_init__(self):
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> AuditConfig:
        """Raise :class:`ValueError` on any nonsensical knob value."""
        for flag in ("strict", "dedup", "collapse", "strict_registers",
                     "migrate", "plan_hints"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(
                    f"{flag} must be a bool, got "
                    f"{getattr(self, flag)!r}"
                )
        if not _is_int(self.workers) or self.workers < 1:
            raise ValueError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        if not _is_int(self.epoch_workers) or self.epoch_workers < 1:
            raise ValueError(
                f"epoch_workers must be an integer >= 1, got "
                f"{self.epoch_workers!r}"
            )
        if not _is_int(self.max_group_size) or self.max_group_size < 1:
            raise ValueError(
                f"max_group_size must be an integer >= 1, got "
                f"{self.max_group_size!r}"
            )
        get_reexec_backend(self.backend)  # unknown name -> ValueError
        # Imported lazily: the core layer has no hard dependency on the
        # transport package unless a net knob is actually used.
        for field, endpoint in (("connect", self.connect),
                                ("listen", self.listen),
                                ("fleet_listen", self.fleet_listen)):
            if endpoint is None:
                continue
            from repro.net.protocol import parse_endpoint

            try:
                _, port = parse_endpoint(endpoint)
            except ValueError as exc:
                raise ValueError(f"{field}: {exc}") from None
            if field == "connect" and port < 1:
                raise ValueError(
                    f"connect needs a real port (1-65535), got "
                    f"{endpoint!r}"
                )
        for field in ("net_connect_timeout", "net_idle_timeout",
                      "fleet_task_timeout"):
            value = getattr(self, field)
            if value is None:
                continue
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or value <= 0):
                raise ValueError(
                    f"{field} must be a positive number of seconds "
                    f"(or None to wait forever), got {value!r}"
                )
        if not _is_int(self.net_retries) or self.net_retries < 0:
            raise ValueError(
                f"net_retries must be an integer >= 0, got "
                f"{self.net_retries!r}"
            )
        for field in ("batch_records", "batch_bytes"):
            value = getattr(self, field)
            if not _is_int(value) or value < 1:
                raise ValueError(
                    f"{field} must be an integer >= 1, got {value!r}"
                )
        if not _is_int(self.fleet_min_workers) or self.fleet_min_workers < 0:
            raise ValueError(
                f"fleet_min_workers must be an integer >= 0, got "
                f"{self.fleet_min_workers!r}"
            )
        if not _is_int(self.fleet_redundancy) or self.fleet_redundancy < 1:
            raise ValueError(
                f"fleet_redundancy must be an integer >= 1 (1 disables "
                f"cross-checking), got {self.fleet_redundancy!r}"
            )
        return self

    # -- conversions ------------------------------------------------------

    def to_options(self) -> AuditConfig:
        # Shim for benchmarks/e2e/auditor_child.py (frozen under
        # BENCHMARK.json), which calls default_pipeline(config.to_options()).
        return self

    def replace(self, **changes) -> AuditConfig:
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> AuditConfig:
        """Validated config from :meth:`to_json` output; unknown keys
        raise :class:`ValueError` (typos must not silently no-op)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"audit config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown audit config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> AuditConfig:
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- CLI binding ------------------------------------------------------

    @classmethod
    def from_args(cls, args) -> AuditConfig:
        """Config from an argparse namespace.

        Layering: defaults, then the ``--config`` file (when given),
        then every flag the user supplied explicitly (the CLI registers
        the knobs with ``default=None`` so "not given" is detectable).
        """
        config = cls()
        if getattr(args, "config", None):
            config = cls.load(args.config)
        changes: dict[str, Any] = {}
        for field in dataclasses.fields(cls):
            value = getattr(args, field.name, None)
            if value is not None:
                changes[field.name] = value
        if getattr(args, "no_dedup", None):
            changes["dedup"] = False
        if getattr(args, "no_collapse", None):
            changes["collapse"] = False
        return config.replace(**changes) if changes else config

    def describe(self) -> str:
        """One-line human summary (CLI banners)."""
        parts = [f"backend={self.backend}", f"workers={self.workers}"]
        if self.epoch_workers > 1:
            parts.append(f"epoch_workers={self.epoch_workers}")
        if not self.strict:
            parts.append("no-strict")
        if not self.dedup:
            parts.append("no-dedup")
        if not self.collapse:
            parts.append("no-collapse")
        if self.strict_registers:
            parts.append("strict-registers")
        if self.plan_hints:
            parts.append("plan-hints")
        if self.max_group_size != DEFAULT_MAX_GROUP:
            parts.append(f"max_group={self.max_group_size}")
        if self.connect:
            parts.append(f"connect={self.connect}")
        if self.fleet_listen:
            parts.append(f"fleet_listen={self.fleet_listen}")
            if self.fleet_min_workers:
                parts.append(f"fleet_min_workers={self.fleet_min_workers}")
            if self.fleet_task_timeout is not None:
                parts.append(
                    f"fleet_task_timeout={self.fleet_task_timeout}")
            if self.fleet_redundancy > 1:
                parts.append(f"fleet_redundancy={self.fleet_redundancy}")
        if self.listen:
            parts.append(f"listen={self.listen}")
            for name in ("batch_records", "batch_bytes"):
                # The class attribute is the field's default.
                if getattr(self, name) != getattr(AuditConfig, name):
                    parts.append(f"{name}={getattr(self, name)}")
        return " ".join(parts)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
