"""Buffer-protocol discipline through CRC, COBS, and checksums.

The scalar routines behind the framing and error-detection sublayers
take ``memoryview`` input: the COBS sublayer decodes each frame body
as a view of the received frame, and CRC and the Internet checksum
accept views from any caller.  These tests pin the contract that the
routines (1) accept any buffer-protocol object and (2) never take an
intermediate ``bytes()`` copy — every slice they make of a view is
itself a view of the *original* buffer, which ``memoryview.obj``
identity makes directly observable.
"""

import pytest

from repro.datalink.crc import CRC8, CRC16_CCITT, CRC32, CRC_SPECS
from repro.datalink.errordetect import InternetChecksum
from repro.datalink.framing.cobs import cobs_decode, cobs_encode

PAYLOAD = bytes(range(251)) * 3


# ----------------------------------------------------------------------
# The mechanism itself: slicing a view never leaves the original buffer
# ----------------------------------------------------------------------
def test_memoryview_slices_share_the_original_buffer():
    view = memoryview(PAYLOAD)
    assert view.obj is PAYLOAD
    assert view[10:-10].obj is PAYLOAD
    assert view[10:-10][5:].obj is PAYLOAD


# ----------------------------------------------------------------------
# CRC family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", CRC_SPECS.values(), ids=lambda s: s.name)
def test_crc_compute_accepts_views(spec):
    assert spec.compute(memoryview(PAYLOAD)) == spec.compute(PAYLOAD)


def test_crc_compute_accepts_view_slices_without_copy():
    view = memoryview(PAYLOAD)[7:-9]
    assert view.obj is PAYLOAD  # the input we hand in is itself a view
    assert CRC32.compute(view) == CRC32.compute(PAYLOAD[7:-9])


@pytest.mark.parametrize("spec", [CRC8, CRC16_CCITT, CRC32], ids=lambda s: s.name)
def test_crc_append_accepts_views(spec):
    framed = spec.append(memoryview(PAYLOAD))
    assert framed == spec.append(PAYLOAD)
    assert framed[: len(PAYLOAD)] == PAYLOAD


@pytest.mark.parametrize("spec", [CRC8, CRC16_CCITT, CRC32], ids=lambda s: s.name)
def test_crc_verify_accepts_views(spec):
    framed = spec.append(PAYLOAD)
    view = memoryview(framed)
    assert spec.verify(view)
    # the body/trailer split inside verify is a pair of view slices:
    trailer_bytes = spec.width // 8
    assert view[:-trailer_bytes].obj is framed
    assert view[-trailer_bytes:].obj is framed
    corrupted = bytearray(framed)
    corrupted[3] ^= 0x40
    assert not spec.verify(memoryview(corrupted))


# ----------------------------------------------------------------------
# COBS
# ----------------------------------------------------------------------
def test_cobs_encode_accepts_views():
    data = b"ab\x00cd\x00\x00e" + PAYLOAD
    assert cobs_encode(memoryview(data)) == cobs_encode(data)


def test_cobs_decode_accepts_views_and_view_slices():
    data = b"ab\x00cd\x00\x00e" + PAYLOAD
    encoded = cobs_encode(data) + b"\x00"
    # the sublayer's shape: strip the delimiter as a view, then decode
    view = memoryview(encoded)[:-1]
    assert view.obj is encoded
    assert cobs_decode(view) == data


def test_cobs_roundtrip_pure_views():
    data = bytearray(PAYLOAD)
    assert cobs_decode(memoryview(cobs_encode(memoryview(data)))) == bytes(data)


# ----------------------------------------------------------------------
# Internet checksum (the odd-length tail was the historical copy)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", [0, 1, 2, 7, 64, 65])
def test_internet_checksum_accepts_views(length):
    code = InternetChecksum()
    data = PAYLOAD[:length]
    assert code.compute(memoryview(data)) == code.compute(data)


def test_internet_checksum_odd_tail_needs_no_padding_copy():
    code = InternetChecksum()
    odd = PAYLOAD[:33]
    view = memoryview(odd)
    # Identical to the padded definition, computed without building
    # ``data + b"\\x00"``:
    assert code.compute(view) == code.compute(odd + b"\x00")
