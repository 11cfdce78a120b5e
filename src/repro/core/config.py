"""The unified, validated audit configuration.

:class:`AuditConfig` is the one knob set, from the CLI to the worker
process: the phase engine, the epoch driver, the epoch work unit and
the forensic timeline all take it directly.  It holds what an audit is
*computed under* and nothing else: where the evidence comes from (a
file, a socket) and where epochs run (local or remote fleet workers)
are deployment settings, given to the reader and to the pool the
session is handed.

* every knob, documented once, on the field;
* **hard validation** at construction: nonsensical values (a
  ``max_group_size`` below 1, a non-bool ``strict``, an unregistered
  ``backend``) raise :class:`ValueError` with a message naming the
  field — at the API boundary, not five frames deep in the pipeline;
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
    #: and being replayed one by one.  Non-strict audits only (strict
    #: treats divergence as a verdict: asking for both is a
    #: ``ValueError``); never changes produced bodies or verdicts.
    plan_hints: bool = False

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
        if not _is_int(self.max_group_size) or self.max_group_size < 1:
            raise ValueError(
                f"max_group_size must be an integer >= 1, got "
                f"{self.max_group_size!r}"
            )
        get_reexec_backend(self.backend)  # unknown name -> ValueError
        if self.plan_hints and self.strict:
            raise ValueError(
                "plan_hints needs strict=False: a strict audit treats "
                "divergence as a verdict and never consults the hints"
            )
        return self

    # -- conversions ------------------------------------------------------

    def to_options(self) -> AuditConfig:
        # Shim for benchmarks/e2e/auditor_child.py (frozen under
        # BENCHMARK.json), which calls default_pipeline(config.to_options()).
        return self

    def replace(self, **changes) -> AuditConfig:
        """A copy with the given fields changed (re-validated)."""
        # Shim for benchmarks/e2e/auditor_child.py (frozen under
        # BENCHMARK.json), which still asks for replace(workers=2) and
        # replace(epoch_workers=2): both fields are gone, so both
        # keywords are dropped; goes with to_options().
        changes.pop("workers", None)
        changes.pop("epoch_workers", None)
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
        parts = [f"backend={self.backend}"]
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
        return " ".join(parts)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
