"""Actor-tracked state access instrumentation.

The paper's central diagnosis of TCP (Section 2.3) is that its
subfunctions are *entangled through shared state*: sequence numbers and
windows are read and written by connection management, reliable
delivery, and congestion control alike.  Its Dafny experience report
(Section 4.2) says the analogous verification pain is the lack of
*ownership*: proving non-interference requires annotating exactly which
heap each function touches.

This module is the measurement instrument for both claims.  Protocol
state lives in :class:`InstrumentedState` containers; every attribute
read or write is logged together with the *actor* — the sublayer or
subfunction currently executing, tracked via :func:`acting_as`.  From
the resulting :class:`AccessLog` we derive:

* the **interference matrix** (which actors touch which state fields) —
  the Dafny-ownership substitute used by :mod:`repro.verify.ownership`;
* the **T3 litmus check** (a sublayer's state must be touched only by
  that sublayer) in :mod:`repro.core.litmus`;
* the **entanglement metrics** of :mod:`repro.analysis.entanglement`.

What a state access costs depends on the log the container was given.
With a recording :class:`AccessLog` (the ``full`` wiring tier) every
read and write goes through Python-level ``__getattribute__`` /
``__setattr__``, one ``ContextVar.get`` and one :class:`Access`
appended to the log.  With a :class:`NullAccessLog` (tiers ``metrics``
and ``off``) the container switches to a class that overrides neither,
so an access is an ordinary instance-attribute load or store and costs
what ``obj.x`` costs.  The tuning benchmark (C3) and the hop-cost
benchmark (C7) report the ratio between the two.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

_CURRENT_ACTOR: ContextVar[str | None] = ContextVar("repro_current_actor", default=None)


def current_actor() -> str | None:
    """Name of the sublayer/subfunction currently executing, if any."""
    return _CURRENT_ACTOR.get()


@contextlib.contextmanager
def acting_as(name: str) -> Iterator[None]:
    """Run a block with ``name`` as the current actor.

    Stack machinery wraps every sublayer callback in this so state
    accesses are attributed to the right component without the
    components having to cooperate.
    """
    token = _CURRENT_ACTOR.set(name)
    try:
        yield
    finally:
        _CURRENT_ACTOR.reset(token)


@dataclass(frozen=True)
class Access:
    """One attribute access on an instrumented state container."""

    actor: str | None
    target: str
    field: str
    kind: str  # "read" or "write"


class AccessLog:
    """An append-only log of state accesses, shared by many containers."""

    def __init__(self) -> None:
        self.records: list[Access] = []
        self.enabled = True

    def record(self, actor: str | None, target: str, field: str, kind: str) -> None:
        if self.enabled:
            self.records.append(Access(actor, target, field, kind))

    def clear(self) -> None:
        self.records.clear()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Temporarily stop recording (used by reporting code itself)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # ------------------------------------------------------------------
    # Views used by the analyses
    # ------------------------------------------------------------------
    def actors(self) -> set[str]:
        return {r.actor for r in self.records if r.actor is not None}

    def fields_touched_by(self, actor: str) -> set[tuple[str, str]]:
        """(target, field) pairs read or written by ``actor``."""
        return {
            (r.target, r.field) for r in self.records if r.actor == actor
        }

    def writers_of(self, target: str, field: str) -> set[str]:
        return {
            r.actor
            for r in self.records
            if r.target == target and r.field == field and r.kind == "write"
            and r.actor is not None
        }

    def readers_of(self, target: str, field: str) -> set[str]:
        return {
            r.actor
            for r in self.records
            if r.target == target and r.field == field and r.kind == "read"
            and r.actor is not None
        }

    def interference_matrix(self) -> dict[tuple[str, str], set[str]]:
        """Map (target, field) -> set of actors touching it.

        Fields touched by more than one actor are the *entangled state*
        the paper blames for TCP's verification difficulty.
        """
        matrix: dict[tuple[str, str], set[str]] = {}
        for r in self.records:
            if r.actor is None:
                continue
            matrix.setdefault((r.target, r.field), set()).add(r.actor)
        return matrix

    def shared_fields(self) -> dict[tuple[str, str], set[str]]:
        """Fields touched by two or more distinct actors."""
        return {
            key: actors
            for key, actors in self.interference_matrix().items()
            if len(actors) > 1
        }


class NullAccessLog(AccessLog):
    """An access log that drops everything.

    Installed into every :class:`InstrumentedState` by the ``metrics``
    and ``off`` wiring tiers.  A container given a null log stops
    logging altogether — its reads and writes become plain attribute
    loads and stores, with no call into the log — so ``record`` here is
    only reached by code that calls it directly.  Litmus analyses over
    a null log see an empty record set, which is why litmus tests must
    run at the ``full`` tier (see DESIGN.md).
    """

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def record(self, actor: str | None, target: str, field: str, kind: str) -> None:
        pass


class InstrumentedState:
    """An attribute container that logs every read and write.

    ``target`` names the container (e.g. ``"rd"`` for the RD sublayer's
    per-connection state, or ``"pcb"`` for the monolithic TCP's PCB).
    Attributes must be declared by assignment before first read, as with
    a normal object.

    Field values live in the instance ``__dict__``; the target name and
    the log live in slots beside it.  Assigning ``_log`` (as
    ``Stack.set_tier`` does) also picks the instance's class: this one,
    whose ``__getattribute__``/``__setattr__`` record each field access,
    or :class:`_QuietState` when the log is a :class:`NullAccessLog`.
    """

    __slots__ = ("_target", "_access_log", "__dict__")

    _RESERVED = frozenset({"_log", "_target", "_access_log", "__class__"})

    def __init__(self, target: str, log: AccessLog | None = None, **initial: Any):
        self._target = target
        self._log = log or AccessLog()
        for name, value in initial.items():
            setattr(self, name, value)

    @property
    def _log(self) -> AccessLog:
        return self._access_log

    @_log.setter
    def _log(self, log: AccessLog) -> None:
        self._access_log = log
        self.__class__ = (
            _QuietState if isinstance(log, NullAccessLog) else InstrumentedState
        )

    @property
    def access_log(self) -> AccessLog:
        return self._access_log

    @property
    def target_name(self) -> str:
        return self._target

    def __getattribute__(self, name: str) -> Any:
        values = object.__getattribute__(self, "__dict__")
        if name in values:
            object.__getattribute__(self, "_access_log").record(
                _CURRENT_ACTOR.get(),
                object.__getattribute__(self, "_target"),
                name,
                "read",
            )
            return values[name]
        return object.__getattribute__(self, name)

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup failed: an undeclared field.
        if name.startswith("__") or name in self._RESERVED:
            raise AttributeError(name)
        raise AttributeError(f"state {self._target!r} has no field {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._RESERVED:
            object.__setattr__(self, name, value)
            return
        object.__getattribute__(self, "_access_log").record(
            _CURRENT_ACTOR.get(),
            object.__getattribute__(self, "_target"),
            name,
            "write",
        )
        object.__getattribute__(self, "__dict__")[name] = value

    def snapshot(self) -> dict[str, Any]:
        """Copy of all fields without logging (for debugging/reports)."""
        return dict(object.__getattribute__(self, "__dict__"))

    def field_names(self) -> set[str]:
        return set(object.__getattribute__(self, "__dict__"))

    def __repr__(self) -> str:
        fields = sorted(object.__getattribute__(self, "__dict__"))
        return f"InstrumentedState({self._target!r}, fields={fields})"


class _QuietState(InstrumentedState):
    """An :class:`InstrumentedState` whose log is null: plain attributes."""

    __slots__ = ()

    __getattribute__ = object.__getattribute__
    __setattr__ = object.__setattr__
