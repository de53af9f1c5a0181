"""Framing as *nested sublayering*: stuffing over flags.

Section 4.1: "we suggest the following sublayering: the upper sublayer
is a stuffing sublayer that does stuffing (at the sender) and
unstuffing (at the receiver).  The lower sublayer adds flags (at the
sender) and removes flags (at the receiver).  This is a nested
sublayering within framing, which is itself a sublayer of the Data
Link."

Both sublayers are headerless in the :class:`~repro.core.pdu.Pdu`
sense — their peer communication is carried in the bit stream itself
(stuffed bits, flag patterns) — but they still satisfy the litmus
tests: T1 (each improves the lower service and talks to its peer),
T2 (the interface between them is just "a frame without flags"), and
T3 (the stuffing rule's trigger/stuff-bit are invisible to the flag
sublayer, and the flag is invisible to the stuffing sublayer *except*
through the shared rule — which is exactly the caveat the paper notes
under T3: "a change in the interface (i.e., flag) would require a
change in the stuffing rule").
"""

from __future__ import annotations

from typing import Any

from ...core.bits import Bits
from ...core.errors import ConfigurationError, FramingError
from ...core.sublayer import Sublayer
from .flags import FrameAssembler, add_flags, remove_flags
from .rules import HDLC_RULE, StuffingRule
from .stuffing import stuff, unstuff


class StuffingSublayer(Sublayer):
    """Upper framing sublayer: stuff on send, unstuff on receive."""

    def __init__(self, name: str = "stuffing", rule: StuffingRule = HDLC_RULE):
        super().__init__(name)
        self.rule = rule

    def clone_fresh(self) -> "StuffingSublayer":
        return StuffingSublayer(self.name, self.rule)

    def on_attach(self) -> None:
        self.state.stuffed_frames = 0
        self.state.unstuffed_frames = 0
        self.state.unstuff_errors = 0

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError(
                f"stuffing sublayer needs Bits, got {type(sdu).__name__}"
            )
        self.state.stuffed_frames = self.state.stuffed_frames + 1
        self.send_down(stuff(sdu, self.rule), **meta)

    def from_below(self, body: Any, **meta: Any) -> None:
        try:
            data = unstuff(body, self.rule)
        except FramingError:
            # An invalid stuffed stream is an abort: drop the frame and
            # let error recovery above deal with the loss.
            self.state.unstuff_errors = self.state.unstuff_errors + 1
            return
        self.state.unstuffed_frames = self.state.unstuffed_frames + 1
        self.deliver_up(data, **meta)


class FlagSublayer(Sublayer):
    """Lower framing sublayer: delimit with flags, recover bodies.

    ``stream_mode=False`` (the default) treats each unit from below as
    one delimited frame (``remove_flags`` semantics).  With
    ``stream_mode=True`` arriving bits are fed to a continuous-scan
    :class:`FrameAssembler`, so frames may arrive split or
    back-to-back across units — the real-receiver behaviour.
    """

    def __init__(
        self,
        name: str = "flags",
        rule: StuffingRule = HDLC_RULE,
        stream_mode: bool = False,
    ):
        super().__init__(name)
        self.rule = rule
        self.stream_mode = stream_mode
        self._assembler: FrameAssembler | None = None

    def clone_fresh(self) -> "FlagSublayer":
        return FlagSublayer(self.name, self.rule, self.stream_mode)

    def on_attach(self) -> None:
        self.state.framed = 0
        self.state.recovered = 0
        self.state.framing_errors = 0
        if self.stream_mode:
            self._assembler = FrameAssembler(self.rule)

    def from_above(self, body: Any, **meta: Any) -> None:
        if not isinstance(body, Bits):
            raise FramingError(
                f"flag sublayer needs Bits, got {type(body).__name__}"
            )
        self.state.framed = self.state.framed + 1
        self.send_down(add_flags(body, self.rule), **meta)

    def from_below(self, framed: Any, **meta: Any) -> None:
        if self.stream_mode:
            if self._assembler is None:
                raise ConfigurationError(
                    f"flag sublayer {self.name!r} is in stream mode but "
                    f"was never attached (no frame assembler)"
                )
            for body in self._assembler.push(framed):
                self.state.recovered = self.state.recovered + 1
                self.deliver_up(body, **meta)
            return
        try:
            body = remove_flags(framed, self.rule)
        except FramingError:
            self.state.framing_errors = self.state.framing_errors + 1
            return
        self.state.recovered = self.state.recovered + 1
        self.deliver_up(body, **meta)
