"""The fleet's command line: ``repro audit --fleet-listen`` (flags
parsed by the CLI and handed straight to :class:`FleetCoordinator`,
which the session receives as its pool) and ``repro worker``.  None of
it is an ``AuditConfig`` field."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect

import pytest

from repro.__main__ import _fleet_endpoint, build_parser, main
from repro.core.config import AuditConfig
from repro.core.epochwork import epoch_worker_config, run_work_unit
from repro.fleet import FleetCoordinator

_AUDIT = ["audit", "bundle.jsonl"]


def test_fleet_defaults_are_off():
    """No flag, no fleet — and what a flag left out means is the
    coordinator's own default, the only one there is."""
    args = build_parser().parse_args(_AUDIT)
    assert args.fleet_listen is None
    assert (args.fleet_min_workers, args.fleet_task_timeout,
            args.fleet_redundancy) == (None, None, None)
    defaults = {name: parameter.default for name, parameter in
                inspect.signature(FleetCoordinator).parameters.items()}
    assert (defaults["min_workers"], defaults["task_timeout"],
            defaults["redundancy"]) == (0, None, 1)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(fleet_listen="no-port-here"), "fleet_listen"),
    (dict(fleet_listen="host:70000"), "fleet_listen"),
    (dict(fleet_min_workers=-1), "fleet_min_workers"),
    (dict(fleet_min_workers=1.5), "fleet_min_workers"),
    (dict(fleet_task_timeout=0), "fleet_task_timeout"),
    (dict(fleet_task_timeout=-3.0), "fleet_task_timeout"),
    (dict(fleet_redundancy=0), "fleet_redundancy"),
    (dict(fleet_redundancy="two"), "fleet_redundancy"),
])
def test_validation_rejects_nonsense(kwargs, fragment, capsys):
    """A bad value is a usage error at the flag (exit 2, the flag
    named) — and no longer a config key at all."""
    (name, value), = kwargs.items()
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as excinfo:
        main([*_AUDIT, f"{flag}={value}"])
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    with pytest.raises(TypeError, match=fragment):
        AuditConfig(**kwargs)


def test_fleet_knobs_flow_through_options(tmp_path, monkeypatch, capsys):
    """There is one FleetCoordinator construction site, the CLI: the
    flags given become its keywords, the ones left out are left to its
    defaults, and the session audits on the pool it is handed."""
    bundle = str(tmp_path / "bundle.jsonl")
    wiki = ["--workload", "wiki", "--scale", "0.005"]
    assert main(["record", *wiki, "--epoch-size", "20",
                 "--out", bundle]) == 0
    built = []

    class RecordingCoordinator:
        serial_fallbacks = 0
        endpoint = "recording:0"

        def __init__(self, listen, **keywords):
            built.append((listen, keywords))
            self.width = keywords["width"]
            self.payloads = []

        def run(self, payload):
            self.payloads.append(payload)
            return run_work_unit(payload)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            built.append("closed")

    @contextlib.contextmanager
    def recording_local_fleet(n, coordinator):
        # --epoch-workers N starts N local workers on the same
        # coordinator, which it closes on the way out.
        built.append(("local_fleet", n, type(coordinator).__name__))
        with coordinator:
            yield coordinator

    monkeypatch.setattr("repro.__main__.FleetCoordinator",
                        RecordingCoordinator)
    monkeypatch.setattr("repro.__main__.local_fleet",
                        recording_local_fleet)
    capsys.readouterr()
    assert main(["audit", bundle, *wiki, "--fleet-listen", "8700",
                 "--fleet-min-workers", "3", "--fleet-redundancy", "2",
                 "--epoch-workers", "4"]) == 0
    assert built == [
        ("0.0.0.0:8700", dict(width=4, min_workers=3, redundancy=2)),
        ("local_fleet", 4, "RecordingCoordinator"),
        "closed",
    ]
    out = capsys.readouterr().out
    assert "workers join recording:0" in out
    assert "ACCEPTED in" in out
    built.clear()
    assert main(["audit", bundle, *wiki, "--fleet-listen", "h:1",
                 "--fleet-task-timeout", "9",
                 "--net-idle-timeout", "12.5"]) == 0
    assert built[0] == ("h:1", dict(width=1, task_timeout=9.0,
                                    heartbeat_timeout=12.5))


def test_worker_options_never_recurse_into_a_nested_fleet():
    """A work unit's config cannot ask for a pool or a fleet: neither is
    something a config can say."""
    unit = epoch_worker_config(AuditConfig(migrate=True))
    assert unit == AuditConfig()
    assert not [field.name for field in dataclasses.fields(unit)
                if field.name.startswith(("fleet", "net", "connect",
                                          "listen", "batch", "epoch"))]


# -- CLI ----------------------------------------------------------------------


def test_fleet_listen_flag_expands_bare_ports():
    # A bare port expands to a wildcard bind — workers are remote hosts.
    assert _fleet_endpoint("8700") == "0.0.0.0:8700"
    assert _fleet_endpoint("127.0.0.1:8700") == "127.0.0.1:8700"


def test_from_args_picks_up_fleet_flags():
    """The parser picks the fleet flags up; the audit config does not."""
    args = build_parser().parse_args(
        [*_AUDIT, "--fleet-listen", "9000", "--fleet-min-workers", "1"])
    assert args.fleet_listen == "0.0.0.0:9000"
    assert args.fleet_min_workers == 1
    assert args.fleet_redundancy is None
    assert AuditConfig.from_args(args) == AuditConfig()


def test_fleet_port_in_use_fails_clean(tmp_path, capsys):
    import socket

    bundle = str(tmp_path / "bundle.jsonl")
    wiki = ["--workload", "wiki", "--scale", "0.005"]
    assert main(["record", *wiki, "--out", bundle]) == 0
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        code = main(["audit", bundle, *wiki, "--fleet-listen",
                     f"127.0.0.1:{blocker.getsockname()[1]}"])
    finally:
        blocker.close()
    assert code == 2
    assert "cannot listen for workers" in capsys.readouterr().err


def test_worker_command_requires_join(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker"])
    assert excinfo.value.code == 2


def test_worker_command_rejects_bad_endpoint(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--join", "not-an-endpoint"])
    assert excinfo.value.code == 2


def test_worker_command_reports_unreachable_coordinator(capsys):
    # Nothing listens on the discard port; the retry deadline expires.
    code = main(["worker", "--join", "127.0.0.1:9",
                 "--connect-timeout", "0.3"])
    assert code == 2
    assert "cannot join fleet" in capsys.readouterr().err
