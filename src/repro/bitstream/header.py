"""BIT-file preamble (the header the Manager parses and strips).

Xilinx ``.bit`` files prepend a tagged header to the raw bitstream:
a fixed magic, then fields ``a`` (design name), ``b`` (part name),
``c`` (date), ``d`` (time), each length-prefixed, and ``e`` carrying
the 32-bit length of the raw bitstream that follows.  Section III-A-1
of the paper: *"Partial bitstream data contain a preamble which
determines the attributes such as file name, FPGA device ID, bitstream
size, etc."* — this is that preamble.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import BitstreamFormatError

# The fixed 13-byte field that opens every .bit file (a 9-byte magic
# length-prefixed, then the 2-byte field count "0001").
_MAGIC = bytes([0x00, 0x09, 0x0F, 0xF0, 0x0F, 0xF0, 0x0F, 0xF0,
                0x0F, 0xF0, 0x00, 0x00, 0x01])


@dataclass(frozen=True)
class BitstreamHeader:
    """Decoded BIT-file preamble fields."""

    design_name: str
    part_name: str
    date: str
    time: str
    payload_length: int

    def encode(self) -> bytes:
        """Serialize the preamble (everything before the raw bitstream)."""
        out = bytearray(_MAGIC)
        for tag, text in (
            (b"a", self.design_name),
            (b"b", self.part_name),
            (b"c", self.date),
            (b"d", self.time),
        ):
            blob = text.encode("ascii") + b"\x00"
            out += tag + struct.pack(">H", len(blob)) + blob
        out += b"e" + struct.pack(">I", self.payload_length)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["BitstreamHeader", int]:
        """Parse a preamble; returns (header, offset of raw bitstream)."""
        if not data.startswith(_MAGIC):
            raise BitstreamFormatError("missing BIT-file magic")
        offset = len(_MAGIC)
        fields = {}
        for expected in (b"a", b"b", b"c", b"d"):
            if data[offset:offset + 1] != expected:
                raise BitstreamFormatError(
                    f"expected field {expected!r} at offset {offset}"
                )
            offset += 1
            if offset + 2 > len(data):
                raise BitstreamFormatError("truncated field length")
            (length,) = struct.unpack_from(">H", data, offset)
            offset += 2
            blob = data[offset:offset + length]
            if len(blob) != length:
                raise BitstreamFormatError("truncated field payload")
            offset += length
            try:
                fields[expected] = blob.rstrip(b"\x00").decode("ascii")
            except UnicodeDecodeError:
                raise BitstreamFormatError(
                    f"field {expected!r} is not ASCII") from None
        if data[offset:offset + 1] != b"e":
            raise BitstreamFormatError("missing length field 'e'")
        offset += 1
        if offset + 4 > len(data):
            raise BitstreamFormatError("truncated payload length")
        (payload_length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        header = cls(
            design_name=fields[b"a"],
            part_name=fields[b"b"],
            date=fields[b"c"],
            time=fields[b"d"],
            payload_length=payload_length,
        )
        return header, offset
