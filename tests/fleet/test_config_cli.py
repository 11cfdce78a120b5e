"""The fleet configuration surface: ``AuditConfig`` knobs, option
plumbing, and the ``repro worker`` / ``repro audit --fleet-listen``
command line."""

from __future__ import annotations

import argparse

import pytest

from repro.__main__ import _fleet_endpoint, main
from repro.core.config import AuditConfig
from repro.core.epochwork import epoch_worker_config


# -- AuditConfig --------------------------------------------------------------


def test_fleet_defaults_are_off():
    config = AuditConfig()
    assert config.fleet_listen is None
    assert config.fleet_min_workers == 0
    assert config.fleet_task_timeout is None
    assert config.fleet_redundancy == 1


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(fleet_listen="no-port-here"), "fleet_listen"),
    (dict(fleet_listen=8700), "fleet_listen"),
    (dict(fleet_min_workers=-1), "fleet_min_workers"),
    (dict(fleet_min_workers=1.5), "fleet_min_workers"),
    (dict(fleet_task_timeout=0), "fleet_task_timeout"),
    (dict(fleet_task_timeout=-3.0), "fleet_task_timeout"),
    (dict(fleet_redundancy=0), "fleet_redundancy"),
    (dict(fleet_redundancy="two"), "fleet_redundancy"),
])
def test_validation_rejects_nonsense(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        AuditConfig(**kwargs)


def test_fleet_knobs_flow_through_options():
    """The fleet knobs ride the one config type: they survive the JSON
    round trip and reach the session that builds the coordinator."""
    config = AuditConfig(fleet_listen="0.0.0.0:8700", fleet_min_workers=3,
                         fleet_task_timeout=45.0, fleet_redundancy=2)
    back = AuditConfig.from_json(config.to_json())
    assert back == config
    assert back.fleet_listen == "0.0.0.0:8700"
    assert back.fleet_min_workers == 3
    assert back.fleet_task_timeout == 45.0
    assert back.fleet_redundancy == 2


def test_describe_mentions_fleet():
    text = AuditConfig(fleet_listen="0.0.0.0:8700", fleet_min_workers=2,
                       fleet_redundancy=2).describe()
    assert "fleet_listen=0.0.0.0:8700" in text
    assert "fleet_min_workers=2" in text
    assert "fleet_redundancy=2" in text


def test_worker_options_never_recurse_into_a_nested_fleet():
    config = AuditConfig(fleet_listen="0.0.0.0:8700",
                         fleet_min_workers=2, fleet_redundancy=2,
                         epoch_workers=4)
    unit = epoch_worker_config(config)
    assert unit.fleet_listen is None
    assert unit.fleet_min_workers == 0
    assert unit.fleet_redundancy == 1
    assert unit.epoch_workers == 1


def test_one_shot_and_session_build_the_same_coordinator(
        counter_app, monkeypatch):
    """There is one FleetCoordinator construction site, the session:
    ``Auditor.audit_epochs`` and a hand-fed ``Auditor.session`` hand it
    identical arguments, ``heartbeat_timeout`` included."""
    import repro.fleet.coordinator as coordinator_mod
    from repro.core import Auditor
    from repro.core.epochwork import run_epoch_inline
    from repro.server import Executor
    from tests.conftest import counter_requests

    built = []

    class RecordingCoordinator:
        serial_fallbacks = 0

        def __init__(self, *args, **kwargs):
            built.append((args, kwargs))

        run_epoch = staticmethod(run_epoch_inline)

        def close(self):
            pass

    monkeypatch.setattr(coordinator_mod, "FleetCoordinator",
                        RecordingCoordinator)
    execution = Executor(counter_app, epoch_size=8).serve(
        counter_requests(24))
    assert execution.epoch_marks
    knobs = dict(fleet_listen="127.0.0.1:0", fleet_min_workers=2,
                 fleet_task_timeout=9.0, fleet_redundancy=2)
    auditor = Auditor(counter_app, AuditConfig(**knobs))
    one_shot = auditor.audit_epochs(execution.epochs(),
                                    execution.initial_state)
    with auditor.session(execution.initial_state) as fed:
        for epoch in execution.epochs():
            fed.feed_epoch(epoch.trace, epoch.reports)
    session = fed.close()
    assert one_shot.accepted and session.accepted
    assert len(built) == 2
    assert built[0] == built[1]
    assert built[0][1]["heartbeat_timeout"] == \
        AuditConfig().net_idle_timeout


# -- CLI ----------------------------------------------------------------------


def test_fleet_listen_flag_expands_bare_ports():
    # A bare port expands to a wildcard bind — workers are remote hosts.
    assert _fleet_endpoint("8700") == "0.0.0.0:8700"
    assert _fleet_endpoint("127.0.0.1:8700") == "127.0.0.1:8700"


def test_from_args_picks_up_fleet_flags():
    args = argparse.Namespace(fleet_listen="0.0.0.0:9000",
                              fleet_min_workers=1)
    config = AuditConfig.from_args(args)
    assert config.fleet_listen == "0.0.0.0:9000"
    assert config.fleet_min_workers == 1
    # Unset flags keep their defaults so config-file layering works.
    assert config.fleet_redundancy == 1
    assert config.fleet_task_timeout is None


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
