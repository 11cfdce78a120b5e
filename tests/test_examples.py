"""Every script in ``examples/`` runs to completion.

Each example asserts its own story (an honest run accepted, a tamper
rejected, a patch flagging exactly the requests it should) and ends by
printing its conclusion; here each one runs in a fresh interpreter, as
a reader would run it, and must exit 0 with that last line.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: What each example prints last: its conclusion.  ``wiki_audit.py``
#: ends in its Figure 11 table, so its verdict line stands in.
CONCLUSION = {
    "audit_epochs": "OK: three contiguous epochs audited",
    "concurrency_schedules": "OK: valid schedules accepted",
    "continuous_audit": "OK",
    "patch_audit_demo": "OK: exactly the requests",
    "quickstart": "OK: honest execution accepted",
    "remote_audit": "OK",
    "tamper_detection": "OK: every attack detected.",
    "wiki_audit": "=== audit accepted ===",
}


def test_every_example_is_run_here():
    assert sorted(path.stem for path in EXAMPLES.glob("*.py")) \
        == sorted(CONCLUSION)


@pytest.mark.parametrize("name", sorted(CONCLUSION))
def test_example_runs(name):
    src = os.path.dirname(os.path.dirname(__import__("repro").__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, str(EXAMPLES / f"{name}.py")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    if name == "wiki_audit":
        assert CONCLUSION[name] in lines
    else:
        assert lines[-1].startswith(CONCLUSION[name]), lines[-1]
