"""Weblang: the PHP-analog web application language (Section 4.2 substrate).

The paper's server is a PHP application; its audit system instruments the
PHP runtime.  Weblang is a small PHP-flavored language with exactly the
features the paper's machinery exercises:

* scripts invoked per request, with request inputs materialized as
  ``param()`` / ``post_param()`` / ``cookie()`` (the ``$_GET``/``$_POST``/
  ``$_COOKIE`` analogs);
* PHP-style arrays (one ordered map serving as both list and dict);
* state-operation built-ins — ``db_query``, ``db_begin``/``db_commit``/
  ``db_rollback``, ``kv_get``/``kv_set``, ``session_get``/``session_put`` —
  which the interpreter *yields* to its driver (the online executor, or the
  audit-time re-execution engines) rather than performing itself;
* non-deterministic built-ins (``time``, ``rand``, ``uniqid``) which are
  likewise yielded, so the server can record them and the verifier can
  replay them (§4.6);
* an incremental control-flow digest updated at every branch (§4.3).

The engine — the analog of the PHP runtime, which the server runs with
the recording hooks on and the verifier as its SIMD-on-demand build
(acc-PHP) — is the compiled one in :mod:`repro.lang.compile` (per-slot
run time in :mod:`repro.lang.simd`).  The plain interpreter here is the
oracle both are checked against.
"""

from repro.lang.parser import parse_program
from repro.lang.interp import Interpreter, StateOpIntent, NondetIntent
from repro.lang.values import PhpArray

__all__ = [
    "Interpreter",
    "NondetIntent",
    "PhpArray",
    "StateOpIntent",
    "parse_program",
]
