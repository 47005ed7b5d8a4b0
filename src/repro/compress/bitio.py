"""Bit-level I/O used by the entropy and dictionary coders.

MSB-first bit order (the order hardware shift registers and the
canonical-Huffman convention use).  The writer pads the final byte with
zero bits; codecs that need exact termination encode an explicit
end-of-stream symbol or a length header.
"""

from __future__ import annotations

from repro.errors import CorruptStreamError


class BitWriter:
    """Accumulates bits MSB-first into a bytearray."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._accumulator = (self._accumulator << 1) | (bit & 1)
        self._bit_count += 1
        if self._bit_count == 8:
            self._buffer.append(self._accumulator)
            self._accumulator = 0
            self._bit_count = 0

    def write_bits(self, value: int, width: int) -> None:
        """Write ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or (width < 64 and value >= (1 << width) and width > 0):
            raise ValueError(f"value {value} does not fit in {width} bits")
        # Bulk path: fold the whole value into the accumulator and
        # flush complete bytes, instead of shifting one bit at a time.
        accumulator = (self._accumulator << width) | value
        count = self._bit_count + width
        buffer = self._buffer
        while count >= 8:
            count -= 8
            buffer.append((accumulator >> count) & 0xFF)
        self._accumulator = accumulator & ((1 << count) - 1)
        self._bit_count = count

    def write_unary(self, value: int) -> None:
        """``value`` one-bits then a terminating zero."""
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def write_bytes(self, data: bytes) -> None:
        if self._bit_count == 0:
            self._buffer.extend(data)
            return
        for byte in data:
            self.write_bits(byte, 8)

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Finish the stream (zero-pad the last byte) and return it."""
        if self._bit_count:
            tail = self._accumulator << (8 - self._bit_count)
            return bytes(self._buffer) + bytes([tail])
        return bytes(self._buffer)


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit offset

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._position

    def read_bit(self) -> int:
        if self._position >= len(self._data) * 8:
            raise CorruptStreamError("bit stream exhausted")
        byte = self._data[self._position >> 3]
        bit = (byte >> (7 - (self._position & 7))) & 1
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return 0
        position = self._position
        end = position + width
        data = self._data
        if end > len(data) * 8:
            raise CorruptStreamError("bit stream exhausted")
        # Bulk path: pull every byte the span touches in one
        # int.from_bytes, then shift/mask — no per-bit loop.
        first = position >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(data[first:last + 1], "big")
        shift = ((last + 1) << 3) - end
        self._position = end
        return (chunk >> shift) & ((1 << width) - 1)

    def read_unary(self, limit: int = 1 << 20) -> int:
        """Count one-bits until the terminating zero."""
        count = 0
        while self.read_bit():
            count += 1
            if count > limit:
                raise CorruptStreamError("runaway unary code")
        return count

    def read_bytes(self, count: int) -> bytes:
        position = self._position
        if position & 7 == 0:  # byte-aligned: slice directly
            start = position >> 3
            if start + count > len(self._data):
                raise CorruptStreamError("bit stream exhausted")
            self._position = position + (count << 3)
            return bytes(self._data[start:start + count])
        # Unaligned: one bulk bit read instead of a per-byte loop.
        return self.read_bits(count << 3).to_bytes(count, "big")
