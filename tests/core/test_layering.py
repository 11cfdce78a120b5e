"""``repro.core`` knows no sockets: the audit's configuration and its
epoch driver import neither the transport (``repro.net``) nor the
fleet (``repro.fleet``), lazily or otherwise — endpoints and timeouts
are the CLI's, and a pool is handed in.  And no module of the package
imports ``pickle``, nor forks worker processes of its own."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

_PROBE = """
import sys

import repro.core
from repro.core import AuditConfig, Auditor

AuditConfig()
AuditConfig(strict=False, max_group_size=50).describe()
AuditConfig.from_json({"migrate": True, "backend": "interp"})
try:
    AuditConfig.from_json({"fleet_listen": "0.0.0.0:8700"})
except ValueError:
    pass
Auditor.session, Auditor.audit_epochs
leaked = sorted(name for name in sys.modules
                if name.startswith(("repro.net", "repro.fleet")))
print(leaked)
"""


def test_core_imports_neither_the_transport_nor_the_fleet():
    src = os.path.dirname(os.path.dirname(
        __import__("repro").__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def _importers(refused) -> list[str]:
    """Modules of the package with an import that ``refused`` (called
    with the dotted name, and each name a ``from`` import takes) is
    true of."""
    package = os.path.dirname(__import__("repro").__file__)
    importers = []
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    names = [module] + [f"{module}.{alias.name}"
                                        for alias in node.names]
                else:
                    continue
                if any(refused(name) for name in names):
                    importers.append(os.path.relpath(path, package))
    return importers


def test_no_module_imports_pickle():
    """What crosses a process or host boundary is the bundle's records
    and the ``--json`` verdict, decoded field by field: no module of the
    package can turn received bytes into code."""
    assert _importers(lambda name: name.split(".")[0] in (
        "pickle", "_pickle", "cPickle")) == []


def test_no_module_forks_workers():
    """An epoch runs elsewhere only on a fleet worker — a fresh
    ``repro worker`` interpreter handed bytes over a socket — so nothing
    in the package forks or spawns a process pool."""
    assert _importers(lambda name: name.split(".")[0] == "multiprocessing"
                      or name.startswith("concurrent.futures.process")
                      or name == "concurrent.futures.ProcessPoolExecutor"
                      ) == []


def test_top_level_transport_names_still_resolve():
    """``repro.BundlePublisher`` / ``repro.RemoteBundleReader`` load the
    transport on first use instead of with the package."""
    import repro
    import repro.net

    assert repro.BundlePublisher is repro.net.BundlePublisher
    assert repro.RemoteBundleReader is repro.net.RemoteBundleReader
    from repro import BundlePublisher  # noqa: F401
