"""Declarative bit-level header formats with per-sublayer bit ownership.

Test **T3** of the paper requires that "each sublayer acts on separate
packet bits ... invisible to other sublayers".  To make that checkable
rather than aspirational, headers here are declared as ordered
:class:`Field` lists and every field records which sublayer *owns* it.
The litmus checker (:mod:`repro.core.litmus`) compares the owner tags
against which sublayer actually read or wrote each field at runtime.

A :class:`HeaderFormat` packs/unpacks a ``dict`` of field values to and
from :class:`~repro.core.bits.Bits` (and bytes when the total width is
byte aligned), so the same declaration serves the in-simulator object
representation and an on-the-wire byte encoding.  The Fig 6 sublayered
TCP header and the RFC 793 header are both declared this way, which is
what lets :mod:`repro.analysis.headers` check their isomorphism field
by field.

Because a format is a fixed list of fixed-width fields, its wire image
is *derived* once, at construction: :attr:`HeaderFormat.plan` holds one
``(name, shift, mask, default)`` entry per field, so the byte path
(:meth:`~HeaderFormat.pack_int` / :meth:`~HeaderFormat.unpack_int` and
their ``_bytes`` forms) is one shift-or accumulation into a Python int.
The :class:`Bits` path (``pack``/``unpack``/``split``) walks the fields
bit by bit; the bit-level data link rides on it, and the tests hold the
two equal for every format the package declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bits import Bits
from .errors import HeaderError


@dataclass(frozen=True)
class Field:
    """One fixed-width unsigned integer field in a header.

    Parameters
    ----------
    name:
        Field name, unique within its :class:`HeaderFormat`.
    width:
        Width in bits (>= 1).
    owner:
        Name of the sublayer that owns these bits.  ``None`` means the
        format has a single implicit owner (set by the format).
    default:
        Value used when the field is omitted at pack time.
    """

    name: str
    width: int
    owner: str | None = None
    default: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise HeaderError(f"field {self.name!r} must be at least 1 bit wide")
        if not (0 <= self.default < (1 << self.width)):
            raise HeaderError(
                f"default {self.default} does not fit field {self.name!r} "
                f"({self.width} bits)"
            )

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class HeaderFormat:
    """An ordered sequence of :class:`Field` with pack/unpack."""

    def __init__(self, name: str, fields: list[Field], owner: str | None = None):
        seen: set[str] = set()
        resolved: list[Field] = []
        for field in fields:
            if field.name in seen:
                raise HeaderError(f"duplicate field {field.name!r} in {name!r}")
            seen.add(field.name)
            if field.owner is None and owner is not None:
                field = Field(field.name, field.width, owner, field.default)
            resolved.append(field)
        self.name = name
        self.fields: tuple[Field, ...] = tuple(resolved)
        self._by_name: dict[str, Field] = {f.name: f for f in self.fields}
        #: Total header width in bits.
        self.bit_width: int = sum(f.width for f in self.fields)
        self._byte_width: int | None = (
            self.bit_width // 8 if self.bit_width % 8 == 0 else None
        )
        #: The field names, for membership checks.
        self.names: frozenset[str] = frozenset(self._by_name)
        #: Field name -> default, in field order.  Shared: do not mutate.
        self.defaults: dict[str, int] = {f.name: f.default for f in self.fields}
        plan = []
        shift = self.bit_width
        for field in self.fields:
            shift -= field.width
            plan.append((field.name, shift, field.max_value, field.default))
        #: One ``(name, shift, mask, default)`` per field: the field's
        #: value sits at ``(header >> shift) & mask`` of the header read
        #: as one big-endian integer of ``bit_width`` bits.
        self.plan: tuple[tuple[str, int, int, int], ...] = tuple(plan)

    # ------------------------------------------------------------------
    @property
    def byte_width(self) -> int:
        """Total header width in bytes; raises if not byte aligned."""
        if self._byte_width is None:
            raise HeaderError(f"header {self.name!r} is not byte aligned")
        return self._byte_width

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise HeaderError(f"no field {name!r} in header {self.name!r}") from None

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def owners(self) -> set[str]:
        """The set of sublayers owning at least one field."""
        return {f.owner for f in self.fields if f.owner is not None}

    def fields_owned_by(self, owner: str) -> list[Field]:
        return [f for f in self.fields if f.owner == owner]

    def bit_ranges(self) -> dict[str, tuple[int, int]]:
        """Map field name -> (start_bit, end_bit_exclusive) in the packed layout."""
        ranges: dict[str, tuple[int, int]] = {}
        offset = 0
        for field in self.fields:
            ranges[field.name] = (offset, offset + field.width)
            offset += field.width
        return ranges

    # ------------------------------------------------------------------
    def pack(self, values: Mapping[str, int] | None = None) -> Bits:
        """Encode field values to bits; missing fields take their default."""
        values = values or {}
        self._reject_unknown(values)
        out = Bits()
        for field in self.fields:
            value = int(values.get(field.name, field.default))
            if not (0 <= value <= field.max_value):
                raise self._misfit(field.name, value)
            out = out + Bits.from_int(value, field.width)
        return out

    def pack_int(self, values: Mapping[str, int] | None = None) -> int:
        """Encode field values to one ``bit_width``-bit big-endian integer."""
        values = values or self.defaults
        if not self.names.issuperset(values):
            self._reject_unknown(values)
        get = values.get
        packed = 0
        for name, shift, mask, default in self.plan:
            value = get(name, default)
            if value.__class__ is not int:
                value = int(value)
            if value & mask != value:  # negative, or wider than the field
                raise self._misfit(name, value)
            packed |= value << shift
        return packed

    def pack_bytes(self, values: Mapping[str, int] | None = None) -> bytes:
        packed = self.pack_int(values)
        if self._byte_width is None:
            # What ``pack(values).to_bytes()`` says of an unaligned format.
            raise ValueError(
                f"bit length {self.bit_width} is not a whole number of bytes"
            )
        return packed.to_bytes(self._byte_width, "big")

    def _reject_unknown(self, values: Mapping[str, int]) -> None:
        unknown = set(values) - self.names
        if unknown:
            raise HeaderError(
                f"unknown fields for header {self.name!r}: {sorted(unknown)}"
            )

    def _misfit(self, name: str, value: int) -> HeaderError:
        return HeaderError(
            f"value {value} does not fit field {name!r} "
            f"({self._by_name[name].width} bits) of header {self.name!r}"
        )

    def unpack(self, bits: Bits) -> dict[str, int]:
        """Decode exactly one header's worth of leading bits."""
        if len(bits) < self.bit_width:
            raise HeaderError(
                f"need {self.bit_width} bits for header {self.name!r}, "
                f"got {len(bits)}"
            )
        values: dict[str, int] = {}
        offset = 0
        for field in self.fields:
            values[field.name] = bits[offset : offset + field.width].to_int()
            offset += field.width
        return values

    def unpack_int(self, packed: int) -> dict[str, int]:
        """Decode a header held as one ``bit_width``-bit integer."""
        return {
            name: (packed >> shift) & mask for name, shift, mask, _ in self.plan
        }

    def unpack_bytes(self, data: bytes) -> dict[str, int]:
        """Decode the leading ``bit_width`` bits of ``data``."""
        span = (self.bit_width + 7) // 8
        if len(data) < span:
            raise HeaderError(
                f"need {self.bit_width} bits for header {self.name!r}, "
                f"got {8 * len(data)}"
            )
        return self.unpack_int(
            int.from_bytes(data[:span], "big") >> (8 * span - self.bit_width)
        )

    def split(self, bits: Bits) -> tuple[dict[str, int], Bits]:
        """Decode the leading header and return (values, remaining bits)."""
        return self.unpack(bits), bits[self.bit_width :]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"HeaderFormat({self.name!r}, {self.bit_width} bits)"


def concat_formats(name: str, *formats: HeaderFormat) -> HeaderFormat:
    """Concatenate header formats into one, preserving field owners.

    This models the right-hand side of the paper's Fig 2/Fig 6: the full
    packet header is the concatenation of per-sublayer subheaders, each
    sublayer owning only its own region.  Field names are prefixed with
    the source format name to stay unique (``cm.isn``, ``rd.seq`` ...).
    """
    fields: list[Field] = []
    for fmt in formats:
        for field in fmt.fields:
            fields.append(
                Field(
                    name=f"{fmt.name}.{field.name}",
                    width=field.width,
                    owner=field.owner,
                    default=field.default,
                )
            )
    return HeaderFormat(name, fields)
