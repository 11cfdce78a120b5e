"""Application bundles and initial state.

An :class:`Application` is what the principal deploys: a set of weblang
scripts (the program), the database schema and seed data, and the names of
the shared objects.  Both the executor and the verifier hold the same
Application — "the verifier and the server need not run the same program —
only the same logic" (§7); here they run the same scripts through different
runtimes (plain vs accelerated).

:class:`InitialState` captures the shared objects' contents at the start of
the audited epoch.  The verifier needs it to replay from the epoch start
(§4.1, "Persistent objects"); between contiguous audits it is produced by
the previous audit's migration step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import Program
from repro.lang.parser import parse_program
from repro.sql.engine import Engine


@dataclass
class Application:
    """The deployed program plus its object configuration."""

    name: str
    scripts: dict[str, Program]
    db_setup: str = ""
    db_name: str = "db:main"
    kv_name: str = "kv:apc"
    session_cookie: str = "sess"
    #: Script name -> the source text ``scripts`` was parsed from: the
    #: form the program takes across a process or host boundary (the
    #: epoch work unit, :mod:`repro.core.epochwork`).
    sources: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def from_sources(
        name: str,
        sources: dict[str, str],
        db_setup: str = "",
    ) -> Application:
        """Compile script sources into an Application."""
        scripts = {
            script_name: parse_program(text, script_name)
            for script_name, text in sources.items()
        }
        return Application(name, scripts, db_setup, sources=dict(sources))

    def script(self, name: str) -> Program:
        program = self.scripts.get(name)
        if program is None:
            raise KeyError(f"application {self.name!r} has no script {name!r}")
        return program


@dataclass
class InitialState:
    """Shared-object contents at the start of the audited epoch.

    ``registers`` maps register name -> frozen value.  A register absent
    from the map is a fresh register whose initial value is ``None`` (a new
    session).
    """

    db_engine: Engine
    kv: dict[str, object] = field(default_factory=dict)
    registers: dict[str, object] = field(default_factory=dict)

    def copy(self) -> InitialState:
        return InitialState(
            self.db_engine.deep_copy(), dict(self.kv), dict(self.registers)
        )
