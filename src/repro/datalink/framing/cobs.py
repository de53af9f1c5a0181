"""COBS framing — a byte-stuffing replacement for the bit-stuffed pair.

Consistent Overhead Byte Stuffing (Cheshire & Baker) delimits frames
with zero bytes and re-codes the payload so that no zero byte appears
inside a frame: the frame becomes a chain of blocks, each led by a
code byte giving the distance to the next (removed) zero.  Worst-case
overhead is one byte per 254, plus the leading code byte.

As a *sublayer*, COBS replaces the entire nested framing pair
(stuffing + flags) with one component offering the same service —
"frames in, frames out, delimitation handled" — to the error-detection
sublayer above and the encoding sublayer below.  That makes it the
re-partitioning demonstration promised in DESIGN.md: sublayer
boundaries themselves are design choices, and a stack can swap a
two-sublayer decomposition for a one-sublayer one without any other
sublayer noticing.
"""

from __future__ import annotations

from typing import Any

from ...core.bits import Bits
from ...core.errors import FramingError
from ...core.sublayer import Sublayer


def cobs_encode(data: bytes) -> bytes:
    """Encode so the output contains no zero bytes.

    ``data`` may be any buffer-protocol object (``memoryview``
    included); it is only iterated, never copied.
    """
    out = bytearray()
    block = bytearray()
    for byte in data:
        if byte == 0:
            out.append(len(block) + 1)
            out.extend(block)
            block.clear()
        else:
            block.append(byte)
            if len(block) == 254:
                out.append(255)
                out.extend(block)
                block.clear()
    out.append(len(block) + 1)
    out.extend(block)
    return bytes(out)


def cobs_decode(data: bytes) -> bytes:
    """Invert :func:`cobs_encode`.  Raises on malformed input.

    Accepts any buffer-protocol object; block slices of a
    ``memoryview`` input stay views (no per-block copies).
    """
    out = bytearray()
    position = 0
    while position < len(data):
        code = data[position]
        if code == 0:
            raise FramingError("zero byte inside a COBS frame")
        position += 1
        end = position + code - 1
        if end > len(data):
            raise FramingError("COBS block overruns the frame")
        chunk = data[position:end]
        if 0 in chunk:
            raise FramingError("zero byte inside a COBS block")
        out.extend(chunk)
        position = end
        if code != 255 and position < len(data):
            out.append(0)
    return bytes(out)


class CobsFramingSublayer(Sublayer):
    """One sublayer doing the whole framing job (stuffing + delimiting).

    Downward: byte-aligned frame bits -> COBS bytes + 0x00 delimiter,
    as bits.  Upward: strip the delimiter, decode; malformed frames
    (e.g. after bit errors) are dropped — the same loss-shaped service
    the bit-stuffed pair provides, so error recovery above is
    untouched by the swap.
    """

    def __init__(self, name: str = "framing"):
        super().__init__(name)

    def on_attach(self) -> None:
        self.state.framed = 0
        self.state.recovered = 0
        self.state.framing_errors = 0

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError("COBS framing needs Bits")
        if len(sdu) % 8 != 0:
            raise FramingError("COBS framing needs byte-aligned frames")
        self.state.framed = self.state.framed + 1
        encoded = cobs_encode(sdu.to_bytes()) + b"\x00"
        self.send_down(Bits.from_bytes(encoded), **meta)

    def from_below(self, framed: Any, **meta: Any) -> None:
        if not isinstance(framed, Bits) or len(framed) % 8 != 0 or len(framed) == 0:
            self.state.framing_errors = self.state.framing_errors + 1
            return
        raw = framed.to_bytes()
        if not raw.endswith(b"\x00"):
            self.state.framing_errors = self.state.framing_errors + 1
            return
        try:
            # Slice off the delimiter as a view: decode never copies
            # the frame body.
            body = cobs_decode(memoryview(raw)[:-1])
        except FramingError:
            self.state.framing_errors = self.state.framing_errors + 1
            return
        self.state.recovered = self.state.recovered + 1
        self.deliver_up(Bits.from_bytes(body), **meta)
