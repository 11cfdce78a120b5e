"""One driver for the engines' generator contract, with canned replies.

Both engines speak one intent vocabulary (:mod:`repro.lang.interp`): a
run yields :class:`StateOpIntent` / :class:`NondetIntent` /
:class:`ExternalIntent` with one operand per slot, takes back one reply
per slot, and returns a :class:`RunOutput` with one body per slot.  A
request run alone — ``engine.run(program, request)`` on either engine —
is a group of one.
"""

from __future__ import annotations

from dataclasses import fields

from repro.common.errors import (
    DivergenceError,
    MultivalueFallback,
    WeblangError,
)
from repro.lang.interp import NondetIntent, StateOpIntent

#: What ends a group run that does not complete.
GROUP_ERRORS = (WeblangError, DivergenceError, MultivalueFallback)


class Canned:
    """One slot's replies: state operations from ``state`` in order
    (``None`` once it runs out), non-deterministic calls from
    ``nondets`` in order (``rest`` once it runs out), externals
    ``True``."""

    def __init__(self, state=(), nondets=(), rest=7):
        self.state = list(state)
        self.nondets = list(nondets)
        self.rest = rest

    def reply(self, intent):
        if type(intent) is StateOpIntent:
            return self.state.pop(0) if self.state else None
        if type(intent) is NondetIntent:
            return self.nondets.pop(0) if self.nondets else self.rest
        return True


def drive(run, slots=None, catch=(WeblangError,)):
    """Run the generator ``run`` to its end, slot ``i``'s replies from
    ``slots[i]`` (default: one :class:`Canned` slot).

    Returns ``(RunOutput | None, intents, exception | None)``: the
    intents as yielded, and what ended the run if it is one of
    ``catch`` (anything else propagates), so error behaviour is
    comparable too.
    """
    slots = [Canned()] if slots is None else slots
    intents = []
    try:
        intent = next(run)
        while True:
            intents.append(intent)
            intent = run.send([slot.reply(intent) for slot in slots])
    except StopIteration as stop:
        return stop.value, intents, None
    except catch as error:
        return None, intents, error


def finish(run, catch=(WeblangError,)):
    """The output of a run that yields nothing, or the exception of
    ``catch`` that ended it."""
    try:
        next(run)
    except StopIteration as stop:
        return stop.value
    except catch as error:
        return error
    raise AssertionError("a pure script yielded an intent")


def alone(engine, program, request):
    """``(body, steps, flow tag)`` of ``request`` run alone on
    ``engine``, a script that yields nothing, or its error's text."""
    output = finish(engine.run(program, request))
    if isinstance(output, WeblangError):
        return f"{type(output).__name__}: {output}"
    (body,) = output.bodies
    return body, output.steps, output.flow_tag


def stacked(members):
    """The intent a group yields where its members, each run alone,
    yield the one-slot intents ``members``: their operands side by
    side, slot ``i`` from ``members[i]``."""
    first = members[0]
    return type(first)(**{
        field.name: (
            [value for member in members
             for value in getattr(member, field.name)]
            if type(getattr(first, field.name)) is list
            else getattr(first, field.name))
        for field in fields(first)})
