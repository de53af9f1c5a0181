"""The integer pack/unpack plan against the bit-by-bit ``Bits`` path.

``HeaderFormat.pack``/``unpack`` walk the fields one bit at a time and
are the reference; ``pack_int``/``pack_bytes``/``unpack_bytes`` use the
shift-and-mask plan compiled at construction.  Every format declared
anywhere under ``src/repro`` (found by importing the package), plus
three synthetic ones for the shapes no declared format has, must agree
on results and on the exception each bad input raises.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.bits import Bits
from repro.core.header import Field, HeaderFormat


def declared_formats() -> dict[str, HeaderFormat]:
    found: dict[int, HeaderFormat] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, HeaderFormat):
                found[id(value)] = value
    return {fmt.name: fmt for fmt in found.values()}


DECLARED = declared_formats()
SYNTHETIC = {
    "odd": HeaderFormat("odd", [Field("a", 3), Field("b", 9, default=300)]),
    "bitflags": HeaderFormat("bitflags", [Field(f"f{i}", 1) for i in range(8)]),
    "wide": HeaderFormat("wide", [Field("x", 1), Field("big", 130), Field("y", 5)]),
}
FORMATS = {**DECLARED, **SYNTHETIC}


def test_discovery_finds_every_declared_format():
    assert set(DECLARED) >= {
        "dm", "cm", "rd", "osr", "tcp", "arq", "mac", "ip", "record",
    }  # fmt: skip
    assert not set(DECLARED) & set(SYNTHETIC)


def outcome(call):
    """What a call did: its value, or the exception's type and text."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


@st.composite
def format_and_values(draw, in_range: bool):
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    values = {}
    for field in draw(st.lists(st.sampled_from(fmt.fields), unique=True)):
        low, high = (0, field.max_value) if in_range else (-3, field.max_value + 3)
        values[field.name] = draw(st.integers(low, high))
    return fmt, values


@settings(max_examples=300, deadline=None)
@given(format_and_values(in_range=True))
def test_pack_matches_bits_path_with_defaults_for_omitted_fields(case):
    fmt, values = case
    bits = fmt.pack(values)
    assert fmt.pack_int(values) == bits.to_int()
    assert outcome(lambda: fmt.pack_bytes(values)) == outcome(bits.to_bytes)
    assert fmt.unpack_int(bits.to_int()) == fmt.unpack(bits)


@settings(max_examples=300, deadline=None)
@given(format_and_values(in_range=False), st.booleans())
def test_pack_raises_what_the_bits_path_raises(case, add_unknown):
    fmt, values = case
    if add_unknown:
        values = {**values, "no_such_field": 1, "another": 2}
    expected = outcome(lambda: fmt.pack(values).to_bytes())
    assert outcome(lambda: fmt.pack_bytes(values)) == expected
    if expected[0] != "ok" and expected[0] is not ValueError:
        # ValueError is to_bytes() on an unaligned width: not pack_int's.
        assert outcome(lambda: fmt.pack_int(values)) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.binary(max_size=48))
def test_unpack_bytes_matches_bits_path_on_any_input_length(name, data):
    # Short inputs raise; long ones decode the leading header and ignore
    # the rest; an unaligned format reads the leading bits of its last byte.
    fmt = FORMATS[name]
    expected = outcome(lambda: fmt.unpack(Bits.from_bytes(data)))
    assert outcome(lambda: fmt.unpack_bytes(data)) == expected
    assert outcome(lambda: fmt.unpack_bytes(memoryview(data))) == expected


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_cached_widths_and_names_match_the_field_list(name):
    fmt = FORMATS[name]
    assert fmt.bit_width == sum(f.width for f in fmt.fields)
    assert fmt.names == set(fmt.field_names())
    assert list(fmt.defaults.items()) == [(f.name, f.default) for f in fmt.fields]
    ranges = fmt.bit_ranges()
    for field_name, shift, mask, default in fmt.plan:
        start, end = ranges[field_name]
        assert (shift, mask) == (fmt.bit_width - end, (1 << (end - start)) - 1)
        assert default == fmt.field(field_name).default
    if fmt.bit_width % 8 == 0:
        assert fmt.byte_width == fmt.bit_width // 8
        assert fmt.unpack_bytes(fmt.pack_bytes()) == fmt.defaults
