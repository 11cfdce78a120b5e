"""The unified, validated audit configuration (repro.core.config)."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.core.config import AuditConfig
from repro.core.reexec import DEFAULT_MAX_GROUP, default_backend


def test_defaults_match_ssco_audit():
    config = AuditConfig()
    assert config.strict and config.dedup and config.collapse
    assert not config.strict_registers and not config.migrate
    assert config.max_group_size == DEFAULT_MAX_GROUP
    assert config.backend == default_backend()
    assert not config.plan_hints


def test_backend_default_resolves_env_at_construction(monkeypatch):
    """REPRO_BACKEND is read when the config is built, not when the
    module was imported (the old import-time seam broke subprocess
    tests that set the env var late)."""
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert default_backend() == "interp"
    assert AuditConfig().backend == "interp"
    monkeypatch.delenv("REPRO_BACKEND")
    assert default_backend() == "hybrid"
    assert AuditConfig().backend == "hybrid"


@pytest.mark.parametrize("kwargs,fragment", [
    # No longer knobs (re-execution has one serial chunk loop; the
    # recorder cuts epochs): unknown keywords, refused by name whatever
    # their value.
    (dict(workers=0), "workers"),
    (dict(workers=-2), "workers"),
    (dict(workers=2.5), "workers"),
    (dict(epoch_size=-1), "epoch_size"),
    (dict(epoch_size="10"), "epoch_size"),
    (dict(max_group_size=0), "max_group_size"),
    (dict(max_group_size=True), "max_group_size"),
    (dict(plan_hints=0), "plan_hints"),
    # Where epochs run is a deployment flag, not a knob: unknown too.
    (dict(epoch_workers=0), "epoch_workers"),
    (dict(epoch_workers="2"), "epoch_workers"),
    (dict(backend="no-such-engine"), "unknown re-exec backend"),
    (dict(strict="yes"), "strict"),
    (dict(dedup=1), "dedup"),
])
def test_validation_rejects_nonsense(kwargs, fragment):
    with pytest.raises((ValueError, TypeError), match=fragment):
        AuditConfig(**kwargs)


def test_plan_hints_is_non_strict_only():
    """The hints are consulted by non-strict chunk planning alone; a
    config that asks for them under ``strict`` would carry a knob that
    does nothing, so it does not exist."""
    with pytest.raises(ValueError, match="plan_hints.*strict"):
        AuditConfig(plan_hints=True)
    with pytest.raises(ValueError, match="plan_hints.*strict"):
        AuditConfig(plan_hints=True, strict=False).replace(strict=True)
    with pytest.raises(ValueError, match="plan_hints.*strict"):
        AuditConfig.from_json({"plan_hints": True})
    hinted = AuditConfig(plan_hints=True, strict=False)
    assert AuditConfig.from_json(hinted.to_json()) == hinted


def test_replace_revalidates():
    config = AuditConfig(max_group_size=2)
    assert config.replace(max_group_size=4).max_group_size == 4
    with pytest.raises(ValueError):
        config.replace(max_group_size=-1)
    # The original is immutable and untouched.
    assert config.max_group_size == 2
    with pytest.raises(AttributeError):
        config.max_group_size = 8


def test_json_roundtrip():
    config = AuditConfig(strict=False, migrate=True,
                         backend="interp", max_group_size=100)
    data = config.to_json()
    json.dumps(data)  # serializable as-is
    assert AuditConfig.from_json(data) == config


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown audit config keys"):
        AuditConfig.from_json({"workerz": 2})
    with pytest.raises(ValueError, match="JSON object"):
        AuditConfig.from_json([1, 2])


def test_save_load_file(tmp_path):
    path = str(tmp_path / "audit.json")
    config = AuditConfig(migrate=True, max_group_size=50)
    config.save(path)
    assert AuditConfig.load(path) == config
    with open(path) as fh:
        assert json.load(fh)["max_group_size"] == 50


def test_to_options_and_back():
    """The one leftover of the old two-type split: the frozen e2e
    benchmark still calls ``config.to_options()``, which hands back the
    config itself."""
    config = AuditConfig(strict=False, dedup=False, backend="interp")
    assert config.to_options() is config


def test_workers_knob_is_gone():
    """Re-execution has one serial chunk loop: the group-pool knob is
    refused by name everywhere a config is built."""
    with pytest.raises(ValueError,
                       match="unknown audit config keys: workers "):
        AuditConfig.from_json({"workers": 2})
    with pytest.raises(TypeError, match="workers"):
        AuditConfig(workers=2)
    assert "workers" not in {f.name for f in
                             dataclasses.fields(AuditConfig)}
    # The one exception exists for the frozen
    # benchmarks/e2e/auditor_child.py, which still calls
    # replace(workers=2): the keyword is dropped, and the shim goes
    # with to_options().
    assert AuditConfig().replace(workers=2) == AuditConfig()


def test_epoch_workers_knob_is_gone():
    """Where epochs run is a deployment setting (``--epoch-workers N``
    starts N local fleet workers): the knob is refused by name wherever
    a config is built."""
    with pytest.raises(ValueError,
                       match="unknown audit config keys: epoch_workers "):
        AuditConfig.from_json({"epoch_workers": 2})
    with pytest.raises(TypeError, match="epoch_workers"):
        AuditConfig(epoch_workers=2)
    assert "epoch_workers" not in {f.name for f in
                                   dataclasses.fields(AuditConfig)}
    # The frozen benchmarks/e2e/auditor_child.py still calls
    # replace(epoch_workers=2): dropped by the same shim as workers.
    assert AuditConfig().replace(epoch_workers=2) == AuditConfig()


def test_config_file_naming_epoch_workers_is_refused(tmp_path, capsys):
    """A ``--config`` file written when ``epoch_workers`` was a field
    exits 2 naming it, on every command that reads one."""
    from repro.__main__ import main

    path = str(tmp_path / "audit.json")
    with open(path, "w") as fh:
        json.dump({"epoch_workers": 2}, fh)
    with pytest.raises(ValueError, match="epoch_workers"):
        AuditConfig.from_args(_namespace(config=path))
    for command in (["audit", "b.jsonl"], ["demo"],
                    ["query", "b.jsonl", "kv:x", "--as-of", "0"],
                    ["explain", "b.jsonl", "r1"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--config", path])
        assert excinfo.value.code == 2
        assert ("unknown audit config keys: epoch_workers"
                in capsys.readouterr().err)


def test_query_and_explain_refuse_epoch_workers(capsys):
    """``query`` / ``explain`` audit nothing on a pool: the flag they
    used to accept and ignore is a usage error naming it."""
    from repro.__main__ import main

    for command in (["query", "b.jsonl", "kv:x", "--as-of", "0"],
                    ["explain", "b.jsonl", "r1"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--epoch-workers", "2"])
        assert excinfo.value.code == 2
        assert "--epoch-workers" in capsys.readouterr().err


def _namespace(**kwargs):
    defaults = dict(strict=None, no_dedup=None, no_collapse=None,
                    strict_registers=None, max_group_size=None,
                    backend=None, config=None)
    defaults.update(kwargs)
    return argparse.Namespace(**defaults)


def test_from_args_defaults():
    assert AuditConfig.from_args(_namespace()) == AuditConfig()


def test_from_args_flags_layer_over_config_file(tmp_path):
    path = str(tmp_path / "audit.json")
    AuditConfig(strict=False, max_group_size=100,
                backend="interp").save(path)
    # No flags: the file wins over the defaults.
    config = AuditConfig.from_args(_namespace(config=path))
    assert (config.strict, config.max_group_size,
            config.backend) == (False, 100, "interp")
    # Explicit flags win over the file; untouched fields keep its values.
    config = AuditConfig.from_args(
        _namespace(config=path, max_group_size=2, no_dedup=True)
    )
    assert config.max_group_size == 2
    assert config.backend == "interp"
    assert config.dedup is False


def test_from_args_validates(tmp_path):
    with pytest.raises(ValueError):
        AuditConfig.from_args(_namespace(max_group_size=-1))
    with pytest.raises(ValueError, match="unknown audit config keys"):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"paralel": 2}, fh)
        AuditConfig.from_args(_namespace(config=path))


def test_describe_mentions_the_interesting_knobs():
    text = AuditConfig(max_group_size=2, strict=False,
                       backend="interp").describe()
    assert "backend=interp" in text
    assert "max_group=2" in text
    assert "no-strict" in text


# -- the live-transport settings are the CLI's, not the config's ------------

#: The eleven fields AuditConfig lost: endpoints, timeouts, batch bounds
#: and the fleet are deployment settings of `repro serve` / `audit`.
_TRANSPORT_KEYS = (
    "connect", "listen", "net_connect_timeout", "net_idle_timeout",
    "net_retries", "batch_records", "batch_bytes", "fleet_listen",
    "fleet_min_workers", "fleet_task_timeout", "fleet_redundancy",
)


def test_net_defaults():
    """The transport's defaults are its constructors' (the CLI passes
    only the flags it was given), what the config's used to be."""
    import inspect

    from repro.net import BundlePublisher, RemoteBundleReader

    reader = inspect.signature(RemoteBundleReader).parameters
    assert (reader["connect_timeout"].default, reader["idle_timeout"].default,
            reader["reconnect"].default) == (5.0, 30.0, 3)
    publisher = inspect.signature(BundlePublisher).parameters
    assert publisher["stall_timeout"].default == 30.0
    config = AuditConfig()
    assert not any(hasattr(config, key) for key in _TRANSPORT_KEYS)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(connect="nohost"), "connect"),
    (dict(connect="host:notaport"), "connect"),
    (dict(connect="host:70000"), "connect"),
    (dict(connect="host:0"), "real port"),
    (dict(listen="nocolon"), "listen"),
    (dict(listen=":123"), "listen"),
    (dict(net_connect_timeout=0), "net_connect_timeout"),
    (dict(net_connect_timeout=-1.0), "net_connect_timeout"),
    (dict(net_connect_timeout=True), "net_connect_timeout"),
    (dict(net_idle_timeout=0.0), "net_idle_timeout"),
    (dict(net_retries=-1), "net_retries"),
    (dict(net_retries=1.5), "net_retries"),
])
def test_net_validation_rejects_nonsense(kwargs, fragment, capsys):
    """A bad endpoint, ``--connect`` port 0 or a non-positive timeout
    is a usage error of the flag that carries it: exit 2, the flag
    named."""
    from repro.__main__ import main

    (name, value), = kwargs.items()
    flag = "--" + name.replace("_", "-")
    command = "serve" if name == "listen" else "audit"
    with pytest.raises(SystemExit) as excinfo:
        main([command, f"{flag}={value}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert fragment in err.replace("-", "_")


def test_net_knobs_accept_sane_values():
    from repro.__main__ import build_parser

    parse = build_parser().parse_args
    args = parse(["audit", "--connect", "127.0.0.1:9000",
                  "--net-connect-timeout", "1.5", "--net-retries", "0"])
    assert args.connect == "127.0.0.1:9000"
    assert (args.net_connect_timeout, args.net_retries) == (1.5, 0)
    assert args.net_idle_timeout is None  # the reader's default, not ours
    # Port 0 = ephemeral: valid to bind, not to dial.
    assert parse(["serve", "--listen", "0.0.0.0:0"]).listen == "0.0.0.0:0"


def test_net_json_roundtrip():
    """A saved config that still names a transport key fails as any
    unknown key does — by name, as a keyword too."""
    for key in _TRANSPORT_KEYS:
        with pytest.raises(ValueError,
                           match=f"unknown audit config keys: {key} "):
            AuditConfig.from_json({"max_group_size": 2, key: None})
        with pytest.raises(TypeError, match=key):
            AuditConfig(**{key: None})
    assert not set(AuditConfig().to_json()) & set(_TRANSPORT_KEYS)


# -- process-level epoch execution knobs --------------------------------------


@pytest.mark.parametrize("kwargs,fragment", [
    # Removed knobs are unknown keywords now, whatever their value.
    (dict(prepass_depth=-1), "prepass_depth"),
    (dict(prepass_depth=2.5), "prepass_depth"),
    (dict(prepass_depth=2), "prepass_depth"),
    (dict(epoch_processes="yes"), "epoch_processes"),
    (dict(epoch_processes=1), "epoch_processes"),
])
def test_epoch_process_knob_validation(kwargs, fragment):
    with pytest.raises(TypeError, match=fragment):
        AuditConfig(**kwargs)


def test_removed_epoch_processes_key_fails_loudly(counter_app, honest_run):
    """The other two ways of asking for the removed thread driver — a
    saved config and the one-shot kwarg — name the key as well."""
    from repro.core import ssco_audit

    with pytest.raises(ValueError, match="epoch_processes"):
        AuditConfig.from_json({"epoch_processes": True})
    with pytest.raises(TypeError, match="epoch_processes"):
        ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                   honest_run.initial_state, epoch_processes=False)


def test_removed_knobs_fail_naming_the_key(counter_app, honest_run):
    """prepass_depth, the pipelined session mode, AuditOptions and the
    lenient ssco_audit kwargs are gone; every way of asking for them
    names the offending key."""
    from repro.core import Auditor, ssco_audit

    with pytest.raises(ValueError, match="prepass_depth"):
        AuditConfig.from_json({"prepass_depth": 2})
    # The auditor no longer chooses epoch boundaries (the recorder
    # does): the keys of the old --epoch-size / --epoch-cuts flags.
    for flag, value in (("--epoch-size", 100), ("--epoch-cuts", [40, 80])):
        key = flag.lstrip("-").replace("-", "_")
        with pytest.raises(ValueError,
                           match=f"unknown audit config keys: {key} "):
            AuditConfig.from_json({key: value})
        with pytest.raises(TypeError, match=key):
            AuditConfig(**{key: value})
        with pytest.raises(TypeError, match=key):
            ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                       honest_run.initial_state, **{key: value})
    auditor = Auditor(counter_app)
    with pytest.raises(TypeError, match="pipelined"):
        auditor.session(honest_run.initial_state, pipelined=True)
    with pytest.raises(TypeError, match="pipelined"):
        auditor.audit_epochs([], honest_run.initial_state, pipelined=True)
    with pytest.raises(ImportError, match="AuditOptions"):
        from repro import AuditOptions  # noqa: F401
    with pytest.raises(TypeError, match="epoch_workers"):
        ssco_audit(counter_app, honest_run.trace, honest_run.reports,
                   honest_run.initial_state, epoch_workers=2)


def test_epoch_process_knob_defaults_and_roundtrip():
    """Eight fields, none of them about where or how many epochs run."""
    tuned = AuditConfig(max_group_size=4)
    assert AuditConfig.from_json(tuned.to_json()) == tuned
    fields = [f.name for f in dataclasses.fields(AuditConfig)]
    assert fields == ["strict", "dedup", "collapse", "strict_registers",
                      "max_group_size", "migrate", "backend",
                      "plan_hints"]
    assert [name for name in fields if name.startswith("epoch_")] == []


def test_epoch_process_knobs_layer_through_from_args(tmp_path):
    """``repro audit``'s namespace carries ``--epoch-workers``, a
    deployment flag: the config built from it does not, and the file
    layering underneath is untouched."""
    from repro.__main__ import build_parser

    args = build_parser().parse_args(["audit", "--epoch-workers", "4"])
    assert args.epoch_workers == 4
    assert AuditConfig.from_args(args) == AuditConfig()
    path = str(tmp_path / "audit.json")
    AuditConfig(max_group_size=8).save(path)
    args = build_parser().parse_args(
        ["audit", "--epoch-workers", "2", "--config", path])
    assert AuditConfig.from_args(args) == AuditConfig(max_group_size=8)


def test_every_cli_knob_flag_is_a_config_field():
    """The CLI cannot grow a knob the config does not have: every flag
    ``audit_knobs`` registers lands on an AuditConfig field (or is one
    of the two negated spellings from_args translates)."""
    from repro.__main__ import audit_knobs

    parser = argparse.ArgumentParser(add_help=False)
    audit_knobs(parser)
    dests = {action.dest for action in parser._actions}
    dests.remove("config")  # the file the knobs layer over, not a knob
    fields = {f.name for f in dataclasses.fields(AuditConfig)}
    assert dests - fields == {"no_dedup", "no_collapse"}


# -- wire batching: constants of the publisher ---------------------------------


def test_batch_defaults():
    from repro.net import publisher

    assert publisher.BATCH_RECORDS == 64
    assert publisher.BATCH_BYTES == 256 * 1024


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(batch_records=0), "batch_records"),
    (dict(batch_records=-3), "batch_records"),
    (dict(batch_records=1.5), "batch_records"),
    (dict(batch_records=True), "batch_records"),
    (dict(batch_bytes=0), "batch_bytes"),
    (dict(batch_bytes="big"), "batch_bytes"),
])
def test_batch_validation_rejects_nonsense(kwargs, fragment):
    """Not a knob any more (no committed number compares batch sizes):
    an unknown keyword, refused by name whatever its value."""
    with pytest.raises(TypeError, match=fragment):
        AuditConfig(**kwargs)


def test_backend_error_names_registered_backends():
    with pytest.raises(ValueError) as err:
        AuditConfig(backend="warp-drive")
    assert "accinterp" in str(err.value)
    assert "compinterp" in str(err.value)
