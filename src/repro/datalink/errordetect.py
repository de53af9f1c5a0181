"""The error-detection sublayer (Fig 2).

"Error detection builds on framing by adding some form of checksum to
the end of a frame to make the probability of undetected bit errors
very small" and "has a simple interface to error recovery (frames with
a flag indicating a bit error on reception)".

:class:`ErrorDetectSublayer` appends a code trailer on the way down
and verifies/strips it on the way up, delivering each frame with a
``corrupt`` flag — exactly the narrow upward interface the paper
describes.  The code itself is pluggable behind
:class:`DetectionCode`: any CRC from :mod:`repro.datalink.crc`, the
Internet checksum, or simple parity; swapping one for another touches
nothing else in the stack (the F2 benchmark measures this).

The sublayer works on :class:`~repro.core.bits.Bits` because it sits
above bit-oriented framing; payloads must be byte-aligned (the byte
codes define themselves over octets, as on real links).
"""

from __future__ import annotations

from typing import Any

from ..core.bits import Bits
from ..core.errors import ChecksumError
from ..core.sublayer import Sublayer
from .crc import CRC32, CrcSpec


class DetectionCode:
    """Interface: compute/verify a fixed-width trailer over bytes."""

    name: str = "abstract"
    trailer_bytes: int = 0

    def compute(self, data: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, data: bytes, trailer: bytes) -> bool:
        return self.compute(data) == trailer


class CrcCode(DetectionCode):
    """Adapter putting any :class:`~repro.datalink.crc.CrcSpec` behind
    the detection-code interface."""

    def __init__(self, spec: CrcSpec = CRC32):
        self.spec = spec
        self.name = spec.name
        self.trailer_bytes = spec.width // 8

    def compute(self, data: bytes) -> bytes:
        return self.spec.compute(data).to_bytes(self.trailer_bytes, "big")


class InternetChecksum(DetectionCode):
    """RFC 1071 16-bit ones-complement checksum."""

    name = "internet"
    trailer_bytes = 2

    def compute(self, data: bytes) -> bytes:
        # Handle a trailing odd byte in place of the historical
        # ``data + b"\x00"`` pad so buffer-protocol inputs
        # (memoryview) are summed without a copy.
        pairs = len(data) & ~1
        total = 0
        for i in range(0, pairs, 2):
            total += (data[i] << 8) | data[i + 1]
            total = (total & 0xFFFF) + (total >> 16)
        if len(data) % 2 == 1:
            total += data[-1] << 8
            total = (total & 0xFFFF) + (total >> 16)
        return ((~total) & 0xFFFF).to_bytes(2, "big")


class ParityByte(DetectionCode):
    """XOR of all bytes — deliberately weak, for detection-rate
    comparisons in the F2 benchmark."""

    name = "parity"
    trailer_bytes = 1

    def compute(self, data: bytes) -> bytes:
        parity = 0
        for byte in data:
            parity ^= byte
        return bytes([parity])


class ErrorDetectSublayer(Sublayer):
    """Appends a detection trailer down; verifies and flags up."""

    def __init__(self, name: str = "errordetect", code: DetectionCode | None = None):
        super().__init__(name)
        self.code = code if code is not None else CrcCode(CRC32)

    def clone_fresh(self) -> "ErrorDetectSublayer":
        return ErrorDetectSublayer(self.name, self.code)

    def on_attach(self) -> None:
        self.state.protected = 0
        self.state.verified = 0
        self.state.detected_errors = 0

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise ChecksumError(
                f"error detection needs Bits, got {type(sdu).__name__}"
            )
        data = sdu.to_bytes()  # byte codes are defined over octets
        trailer = self.code.compute(data)
        self.state.protected = self.state.protected + 1
        self.send_down(sdu + Bits.from_bytes(trailer), **meta)

    def from_below(self, frame: Any, **meta: Any) -> None:
        trailer_bits = 8 * self.code.trailer_bytes
        if not isinstance(frame, Bits) or len(frame) < trailer_bits or (
            len(frame) % 8 != 0
        ):
            # Mangled beyond parsing: surface as a corrupt frame.
            self.state.detected_errors = self.state.detected_errors + 1
            self.deliver_up(frame if isinstance(frame, Bits) else Bits(),
                            corrupt=True, **meta)
            return
        body = frame[: len(frame) - trailer_bits]
        trailer = frame[len(frame) - trailer_bits :].to_bytes()
        ok = self.code.verify(body.to_bytes(), trailer)
        if ok:
            self.state.verified = self.state.verified + 1
        else:
            self.state.detected_errors = self.state.detected_errors + 1
        # The paper's narrow interface: the frame plus an error flag.
        self.deliver_up(body, corrupt=not ok, **meta)
