"""WireCodec: structured PDU trees to datagrams and back, bit-exactly."""

import pytest

from repro.core.errors import HeaderError
from repro.core.header import Field, HeaderFormat
from repro.core.pdu import Pdu
from repro.net import CodecError, WireCodec, codec_for_profile, tcp_codec
from repro.transport.sublayered.headers import (
    CM_HEADER,
    CM_NONE,
    CM_SYN,
    DM_HEADER,
    OSR_CTL_DATA,
    OSR_HEADER,
    RD_HEADER,
)

from ..transport.helpers import make_pair, pattern


def captured_wire_units(payload_bytes: int = 12_000):
    """Every unit both hosts of a clean sim transfer put on the wire."""
    sim, a, b, _link = make_pair()
    units = []
    for host in (a, b):
        forward = host.on_transmit

        def tap(unit, _forward=forward, **meta):
            units.append(unit)
            _forward(unit, **meta)

        host.on_transmit = tap
    b.listen(80)
    payload = pattern(payload_bytes)
    received = []
    sock = a.connect(1234, 80)
    sock.on_connect = lambda: (sock.send(payload), sock.close())
    b.on_accept = lambda s: setattr(s, "on_data", received.append)
    sim.run(until=30)
    assert b"".join(received) == payload
    return units


def test_every_wire_shape_round_trips():
    codec = tcp_codec()
    units = captured_wire_units()
    # The transfer exercises all three shapes: handshake (dm|cm),
    # pure ack (dm|cm|rd), data (dm|cm|rd|osr + payload).
    depths = {len(list(u.header_chain())) for u in units}
    assert depths == {2, 3, 4}
    for unit in units:
        wire = codec.encode(unit)
        back = codec.decode(wire)
        assert [p.owner for p in back.header_chain()] == [
            p.owner for p in unit.header_chain()
        ]
        # Unpacking materializes declared padding fields the native
        # stack leaves implicit, so compare field-by-field on the
        # fields the sender actually set …
        for sent, got in zip(unit.header_chain(), back.header_chain()):
            for field, value in sent.header.items():
                assert got.header[field] == value
        assert list(back.header_chain())[-1].inner == (
            list(unit.header_chain())[-1].inner
        )
        # … and prove nothing was lost: re-encoding the rebuilt
        # structure is byte-identical.
        assert codec.encode(back) == wire


def _dm(inner):
    return Pdu("dm", DM_HEADER, {"sport": 40001, "dport": 80}, inner)


_CM_STATIC = {"kind": CM_NONE, "isn": 0xDEADBEEF, "ack_isn": 0x01020304}
_RD_ACK = {"seq": 0xDEADBEF0, "ack": 0x01020345, "is_ack": 1}

#: One datagram of each wire shape, as the commit before the integer
#: plans encoded it (through ``Bits``).  The wire format must not drift.
GOLDEN = {
    "syn": (
        _dm(Pdu("cm", CM_HEADER, {"kind": CM_SYN, "isn": 0xDEADBEEF}, None)),
        "5402009c41005020deadbeef0000000000000000",
    ),
    "pure ack": (
        _dm(Pdu("cm", CM_HEADER, _CM_STATIC, Pdu(
            "rd", RD_HEADER,
            {**_RD_ACK, "sack_left": 0x01020400, "sack_right": 0x01020440},
            None,
        ))),
        "5403009c41005000deadbeef0102030400000000"
        "deadbef001020345400102040001020440",
    ),
    "64 B data": (
        _dm(Pdu("cm", CM_HEADER, _CM_STATIC, Pdu(
            "rd", RD_HEADER, {**_RD_ACK, "has_data": 1}, Pdu(
                "osr", OSR_HEADER,
                {"wnd": 65535, "ecn": 1, "ctl": OSR_CTL_DATA},
                bytes(range(64)),
            ),
        ))),
        "5404019c41005000deadbeef0102030400000000"
        "deadbef001020345c00000000000000000ffff40" + bytes(range(64)).hex(),
    ),
}  # fmt: skip


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_golden_datagrams(shape):
    codec = tcp_codec()
    unit, wire_hex = GOLDEN[shape]
    wire = bytes.fromhex(wire_hex)
    assert codec.encode(unit).hex() == wire_hex
    for datagram in (wire, bytearray(wire), memoryview(wire)):
        back = codec.decode(datagram)
        assert back.owners() == unit.owners()
        for sent, got in zip(unit.header_chain(), back.header_chain()):
            assert got.header == {**sent.format.defaults, **sent.header}
        assert back.payload() == unit.payload()
        assert back.payload() is None or type(back.payload()) is bytes


def test_empty_payload_distinct_from_absent():
    codec = tcp_codec()
    units = captured_wire_units()
    data_unit = next(
        u for u in units if isinstance(list(u.header_chain())[-1].inner, bytes)
    )
    # Rebuild the same header chain around an *empty* SDU (an OSR
    # control unit) and around an absent one; the payload flag must
    # keep them distinct through the round trip.
    for inner in (b"", None):
        unit = inner
        for pdu in reversed(list(data_unit.header_chain())):
            unit = Pdu(pdu.owner, pdu.format, dict(pdu.header), unit)
        back = codec.decode(codec.encode(unit))
        assert list(back.header_chain())[-1].inner == inner


def test_decode_rejects_garbage():
    codec = tcp_codec()
    with pytest.raises(CodecError):
        codec.decode(b"")
    with pytest.raises(CodecError):
        codec.decode(b"\x00\x01\x00")  # wrong magic
    with pytest.raises(CodecError):
        codec.decode(bytes((codec.magic, 9, 0)))  # too many headers
    with pytest.raises(CodecError):
        codec.decode(bytes((codec.magic, 1, 2)))  # bad payload flag
    with pytest.raises(CodecError):
        codec.decode(bytes((codec.magic, 1, 0)) + b"\x00")  # truncated/trailing


def test_decode_rejects_truncated_real_datagram():
    codec = tcp_codec()
    unit = captured_wire_units()[0]
    wire = codec.encode(unit)
    with pytest.raises(CodecError):
        codec.decode(wire[: len(wire) - 1 - (0 if len(wire) > 4 else 0)][:4])


def test_encode_rejects_foreign_units():
    codec = tcp_codec()
    with pytest.raises(CodecError):
        codec.encode(b"raw bytes are not a wire unit")
    fmt = HeaderFormat("x", [Field("f", 8)])
    with pytest.raises(CodecError):
        codec.encode(Pdu("stranger", fmt, {"f": 1}, None))


def test_encode_reports_header_misfits_as_codec_errors():
    # One exception type for everything encode() can refuse: a value
    # too wide for its field and an unknown field name both come back as
    # CodecError, with the HeaderError kept as the cause.
    codec = tcp_codec()
    too_wide = _dm(Pdu("cm", CM_HEADER, {"kind": 9}, None))
    with pytest.raises(CodecError, match="does not fit field 'kind'") as caught:
        codec.encode(too_wide)
    assert isinstance(caught.value.__cause__, HeaderError)
    renamed = _dm(Pdu("cm", CM_HEADER, {"kind": CM_SYN}, None))
    renamed.inner.header["colour"] = 3  # past Pdu's own construction check
    with pytest.raises(CodecError, match="unknown fields") as caught:
        codec.encode(renamed)
    assert isinstance(caught.value.__cause__, HeaderError)


def test_truncation_names_the_header_it_cut():
    codec = tcp_codec()
    wire = bytes.fromhex(GOLDEN["pure ack"][1])
    for size, index in ((3, 0), (6, 0), (7, 1), (19, 1), (20, 2), (36, 2)):
        with pytest.raises(CodecError, match=f"inside header {index} "):
            codec.decode(wire[:size])
    with pytest.raises(CodecError, match="1 trailing bytes"):
        codec.decode(wire + b"\x00")


def test_declaration_validates_magic_and_layers():
    fmt = HeaderFormat("x", [Field("f", 8)])
    with pytest.raises(CodecError):
        WireCodec("bad", magic=300, layers=(("x", fmt),))
    with pytest.raises(CodecError):
        WireCodec("bad", magic=1, layers=())


def test_codec_for_profile():
    assert codec_for_profile("tcp").name == "tcp"
    with pytest.raises(CodecError):
        codec_for_profile("hdlc")
