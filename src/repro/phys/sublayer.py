"""The encoding/decoding sublayer — the bottom of the Fig 2 data link.

Wraps any :class:`~repro.phys.encodings.LineCode` as a
:class:`~repro.core.sublayer.Sublayer`.  Downward it encodes the frame
bits into line symbols; upward it decodes symbols back into bits.  It
carries no header of its own: its peer communication is the symbol
stream itself, and a decode failure (invalid symbols, e.g. after severe
bit errors) drops the unit, which is exactly the service the sublayer
above (framing) is designed to tolerate.
"""

from __future__ import annotations

from typing import Any

from ..core.bits import Bits
from ..core.errors import FramingError
from ..core.sublayer import Sublayer
from .encodings import LineCode, NRZ


class EncodingSublayer(Sublayer):
    """Encodes frame bits to line symbols and back."""

    def __init__(self, name: str = "encode", code: LineCode | None = None):
        super().__init__(name)
        self.code = code if code is not None else NRZ()

    def clone_fresh(self) -> "EncodingSublayer":
        # Share the line code: it is a stateless codec, and rebuilding it
        # with type(...)() would silently drop any constructor config.
        return EncodingSublayer(self.name, self.code)

    def on_attach(self) -> None:
        self.state.encoded = 0
        self.state.decoded = 0
        self.state.decode_errors = 0

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError(
                f"encoding sublayer needs Bits, got {type(sdu).__name__}"
            )
        self.state.encoded = self.state.encoded + 1
        self.send_down(self.code.encode(sdu), **meta)

    def from_below(self, symbols: Any, **meta: Any) -> None:
        if not isinstance(symbols, Bits):
            raise FramingError(
                f"encoding sublayer received {type(symbols).__name__} from wire"
            )
        try:
            data = self.code.decode(symbols)
        except FramingError:
            # Symbols corrupted beyond decodability: drop; upper
            # sublayers (error detection / recovery) handle the gap.
            self.state.decode_errors = self.state.decode_errors + 1
            return
        self.state.decoded = self.state.decoded + 1
        self.deliver_up(data, **meta)
