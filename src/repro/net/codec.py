"""Serializing structured PDUs to UDP datagrams and back.

Inside the simulator, units in flight stay structured
:class:`~repro.core.pdu.Pdu` trees — headers as dicts, typed by their
:class:`~repro.core.header.HeaderFormat` — because the litmus checker
wants to see which sublayer attached which bits.  A real socket wants
bytes.  The bridge is already declared: every sublayer header is a
bit-exact :class:`HeaderFormat`, so a profile's wire format is just the
concatenation of its packed subheaders (the right-hand side of the
paper's Fig 2/Fig 6), and a :class:`WireCodec` needs only the ordered
``(owner, format)`` list to flatten a PDU into a datagram on one host
and rebuild the identical structure on another.

Frame layout (all byte-aligned)::

    [magic:1] [present:1] [payload?:1] [header 0] ... [header n-1] [payload]

``magic`` names the profile (so a stray datagram for the wrong stack
is dropped, not misparsed), ``present`` is how many leading layers of
the declared order carry a header (a TCP handshake is DM|CM, a pure
ack DM|CM|RD, data DM|CM|RD|OSR), and ``payload?`` distinguishes an
absent inner SDU (``None``) from an empty one (``b""`` — OSR window
updates and probes).
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import HeaderError, ReproError
from ..core.header import HeaderFormat
from ..core.pdu import Pdu


class CodecError(ReproError):
    """A unit (or datagram) does not match the codec's wire format."""


class WireCodec:
    """Bidirectional PDU <-> datagram translation for one profile.

    ``layers`` is the profile's header order, outermost first; every
    format must be byte-aligned (they all are — the Fig 6 subheaders
    pad to byte boundaries).  Encoding walks the PDU's header chain and
    requires it to be a prefix of the declared order; decoding rebuilds
    the nested :class:`Pdu` structure a native stack would have built.
    """

    def __init__(
        self,
        name: str,
        magic: int,
        layers: Sequence[tuple[str, HeaderFormat]],
    ):
        """Declare a codec: profile ``name``, one-byte ``magic``, layers."""
        if not 0 <= magic <= 0xFF:
            raise CodecError(f"magic must be one byte, got {magic}")
        if not layers:
            raise CodecError(f"codec {name!r} declares no layers")
        if len(layers) > 0x7F:
            raise CodecError(f"codec {name!r} declares too many layers")
        self.name = name
        self.magic = magic
        self.layers: tuple[tuple[str, HeaderFormat], ...] = tuple(layers)
        self._owners = [owner for owner, _ in self.layers]
        # Everything a datagram's ``present`` byte decides, worked out
        # once: where the headers end, and each field's place in the
        # header block read as one big-endian integer (the per-format
        # plans, shifted by the headers that follow).  byte_width raises
        # HeaderError for an unaligned format — at declaration time, not
        # per packet.
        #: ``_header_end[k]``: datagram offset where k headers end.
        self._header_end = [3]
        for _owner, fmt in self.layers:
            self._header_end.append(self._header_end[-1] + fmt.byte_width)
        #: ``_decode_plan[k]``: k layers, innermost first, as
        #: ``(owner, format, ((field, shift, mask), ...))``.
        self._decode_plan: list[tuple] = [()]
        for present in range(1, len(self.layers) + 1):
            below = 0
            plan = []
            for owner, fmt in reversed(self.layers[:present]):
                fields = tuple(
                    (name, shift + below, mask) for name, shift, mask, _ in fmt.plan
                )
                plan.append((owner, fmt, fields))
                below += fmt.bit_width
            self._decode_plan.append(tuple(plan))

    # ------------------------------------------------------------------
    def encode(self, unit: Pdu) -> bytes:
        """Flatten one wire unit into a datagram."""
        if not isinstance(unit, Pdu):
            raise CodecError(
                f"codec {self.name!r} can only encode Pdu units, "
                f"got {type(unit).__name__}"
            )
        layers = self.layers
        packed = 0
        present = 0
        node = unit
        while isinstance(node, Pdu):
            if present == len(layers):
                raise CodecError(
                    f"unit has {len(unit.owners())} headers; codec "
                    f"{self.name!r} declares {len(layers)} layers"
                )
            owner, fmt = layers[present]
            if node.owner != owner:
                raise CodecError(
                    f"header {present} belongs to {node.owner!r}; codec "
                    f"{self.name!r} expects {owner!r} there"
                )
            try:
                packed = (packed << fmt.bit_width) | fmt.pack_int(node.header)
            except HeaderError as exc:
                raise CodecError(
                    f"header {present} ({owner!r}) does not fit codec "
                    f"{self.name!r}: {exc}"
                ) from exc
            present += 1
            node = node.inner
        if node is None:
            has_payload = 0
        elif isinstance(node, (bytes, bytearray, memoryview)):
            has_payload = 1
        else:
            raise CodecError(
                f"innermost SDU must be bytes or None to cross a socket, "
                f"got {type(node).__name__}"
            )
        head = bytes((self.magic, present, has_payload)) + packed.to_bytes(
            self._header_end[present] - 3, "big"
        )
        return head + node if has_payload else head

    def decode(self, data: bytes) -> Pdu:
        """Rebuild the nested PDU structure from one datagram."""
        size = len(data)
        if size < 3:
            raise CodecError(f"datagram too short ({size} bytes)")
        if data[0] != self.magic:
            raise CodecError(
                f"magic {data[0]:#04x} is not codec {self.name!r} "
                f"({self.magic:#04x})"
            )
        present = data[1]
        has_payload = data[2]
        if not 1 <= present <= len(self.layers):
            raise CodecError(
                f"datagram claims {present} headers; codec {self.name!r} "
                f"declares {len(self.layers)}"
            )
        if has_payload not in (0, 1):
            raise CodecError(f"bad payload flag {has_payload}")
        end = self._header_end[present]
        if size < end:
            index = sum(size >= stop for stop in self._header_end[1:present])
            raise CodecError(
                f"datagram truncated inside header {index} ({size} bytes)"
            )
        if not has_payload and size != end:
            raise CodecError(
                f"{size - end} trailing bytes on a payload-less datagram"
            )
        view = memoryview(data)
        packed = int.from_bytes(view[3:end], "big")
        unit: Pdu | bytes | None = bytes(view[end:]) if has_payload else None
        for owner, fmt, fields in self._decode_plan[present]:
            header = {name: (packed >> shift) & mask for name, shift, mask in fields}
            unit = Pdu(owner, fmt, header, unit)
        return unit  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"WireCodec({self.name!r}, {' | '.join(self._owners)})"


# ----------------------------------------------------------------------
# Profile codecs
# ----------------------------------------------------------------------
def tcp_codec() -> WireCodec:
    """The wire codec for the Fig 5/Fig 6 sublayered TCP profile.

    DM | CM | RD | OSR, exactly the native header concatenation of
    :mod:`repro.transport.sublayered.headers`.  (Import is deferred so
    ``repro.net`` stays importable without pulling the transport tier
    until a TCP codec is actually needed.)
    """
    from ..transport.sublayered.headers import (
        CM_HEADER,
        DM_HEADER,
        OSR_HEADER,
        RD_HEADER,
    )

    return WireCodec(
        "tcp",
        magic=0x54,  # 'T'
        layers=(
            ("dm", DM_HEADER),
            ("cm", CM_HEADER),
            ("rd", RD_HEADER),
            ("osr", OSR_HEADER),
        ),
    )


#: Profile name -> codec factory.  Only profiles whose wire units are
#: pure header-chains over byte payloads can cross a socket today; the
#: datalink profiles emit :class:`~repro.core.bits.Bits` frames and get
#: their codec when the phys boundary grows one.
CODECS = {"tcp": tcp_codec}


def codec_for_profile(profile: str) -> WireCodec:
    """The :class:`WireCodec` for a stack profile (CodecError if none)."""
    try:
        factory = CODECS[profile]
    except KeyError:
        raise CodecError(
            f"no wire codec for profile {profile!r}; "
            f"available: {sorted(CODECS)}"
        ) from None
    return factory()
