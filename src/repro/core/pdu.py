"""Protocol data units: per-sublayer headers wrapping inner data.

The right-hand side of the paper's Fig 2 shows each sublayer pushing
its own header onto the data it receives from above, the peer sublayer
stripping it on the way up.  :class:`Pdu` is exactly that picture: a
header (typed by a :class:`~repro.core.header.HeaderFormat` and tagged
with its owning sublayer) wrapping an inner SDU, which is either the
next sublayer's :class:`Pdu` or raw payload.

Keeping headers as structured objects rather than flattened bytes lets
the litmus checker see precisely which sublayer attached which bits;
:meth:`Pdu.to_bits` produces the flattened wire image when a physical
link needs one (as Fig 2 notes, "actual implementations are unlikely to
do this" — neither do we, except at the phys boundary and in the
header-isomorphism analysis).
"""

from __future__ import annotations

import copy
from typing import Any, Iterator

from .bits import Bits
from .errors import HeaderError
from .header import HeaderFormat


class Pdu:
    """One sublayer's header wrapped around an inner SDU."""

    __slots__ = ("owner", "format", "header", "inner")

    def __init__(
        self,
        owner: str,
        fmt: HeaderFormat | None,
        header: dict[str, int] | None,
        inner: "Pdu | Bits | bytes | Any",
    ):
        self.owner = owner
        self.format = fmt
        self.header = dict(header or {})
        self.inner = inner
        if fmt is not None and not fmt.names.issuperset(self.header):
            unknown = set(self.header) - fmt.names
            raise HeaderError(
                f"header values {sorted(unknown)} not in format {fmt.name!r}"
            )

    # ------------------------------------------------------------------
    def field(self, name: str) -> int:
        """Read a header field, falling back to the format default."""
        if name in self.header:
            return self.header[name]
        if self.format is not None:
            return self.format.field(name).default
        raise HeaderError(f"pdu from {self.owner!r} has no field {name!r}")

    def with_field(self, name: str, value: int) -> "Pdu":
        """A shallow copy with one header field changed."""
        new_header = dict(self.header)
        new_header[name] = value
        return Pdu(self.owner, self.format, new_header, self.inner)

    # ------------------------------------------------------------------
    def header_chain(self) -> Iterator["Pdu"]:
        """Yield this PDU and each nested PDU, outermost first."""
        node: Any = self
        while isinstance(node, Pdu):
            yield node
            node = node.inner

    def find(self, owner: str) -> "Pdu | None":
        """The nested PDU whose header belongs to ``owner``, if any."""
        for pdu in self.header_chain():
            if pdu.owner == owner:
                return pdu
        return None

    def payload(self) -> Any:
        """The innermost non-PDU data."""
        node: Any = self
        while isinstance(node, Pdu):
            node = node.inner
        return node

    def owners(self) -> list[str]:
        """Sublayer names of all headers, outermost first."""
        return [pdu.owner for pdu in self.header_chain()]

    # ------------------------------------------------------------------
    def header_bits(self) -> int:
        """Total header bits across all nested PDUs."""
        return sum(
            pdu.format.bit_width for pdu in self.header_chain() if pdu.format
        )

    def payload_bits(self) -> int:
        data = self.payload()
        if isinstance(data, Bits):
            return len(data)
        if isinstance(data, (bytes, bytearray)):
            return 8 * len(data)
        return 0

    def to_bits(self) -> Bits:
        """Flatten to the wire image: headers outermost-first, then payload.

        The payload must be :class:`Bits` or bytes.
        """
        out = Bits()
        for pdu in self.header_chain():
            if pdu.format is not None:
                out = out + pdu.format.pack(pdu.header)
        data = self.payload()
        if isinstance(data, Bits):
            return out + data
        if isinstance(data, (bytes, bytearray)):
            return out + Bits.from_bytes(bytes(data))
        if data is None:
            return out
        raise HeaderError(
            f"cannot serialize payload of type {type(data).__name__}"
        )

    def clone(self) -> "Pdu":
        """Deep copy, so in-flight packets are independent of sender state."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = []
        for pdu in self.header_chain():
            shown = {k: v for k, v in pdu.header.items()}
            parts.append(f"{pdu.owner}{shown}")
        data = self.payload()
        if isinstance(data, (bytes, bytearray)):
            tail = f"{len(data)}B"
        elif isinstance(data, Bits):
            tail = f"{len(data)}b"
        else:
            tail = repr(data)
        return "Pdu<" + " | ".join(parts) + f" | {tail}>"


def unwrap(pdu: Pdu, expected_owner: str) -> tuple[dict[str, int], Any]:
    """Strip the outermost header, checking it belongs to ``expected_owner``.

    This is the receive-side primitive: a sublayer may only pop its own
    peer's header.  Returns (header values with defaults filled, inner SDU).
    """
    if pdu.owner != expected_owner:
        raise HeaderError(
            f"expected outer header from {expected_owner!r}, got {pdu.owner!r}"
        )
    if pdu.format is None:
        return dict(pdu.header), pdu.inner
    return {**pdu.format.defaults, **pdu.header}, pdu.inner
