"""Configuration packet format (type-1 / type-2) and register map.

The raw bitstream after the BIT header is a sequence of 32-bit words:
dummy padding, a bus-width auto-detect pattern, the sync word
``0xAA995566``, then configuration packets.  A type-1 packet addresses
one of the configuration registers and carries up to 2047 payload
words; a type-2 packet extends the previous type-1 with a 27-bit word
count, which is how multi-frame FDRI payloads are expressed.

This module provides word-level encode/decode used by both the
generator and the parser, and by tests that assert the generator's
output is structurally valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence

from repro import accel
from repro.errors import BitstreamFormatError

SYNC_WORD = 0xAA995566
DUMMY_WORD = 0xFFFFFFFF
BUS_WIDTH_SYNC = 0x000000BB
BUS_WIDTH_DETECT = 0x11220044
NOOP_WORD = 0x20000000  # type-1 NOP with zero payload

_TYPE1_MAX_WORDS = (1 << 11) - 1
_TYPE2_MAX_WORDS = (1 << 27) - 1


class Opcode(enum.IntEnum):
    NOP = 0
    READ = 1
    WRITE = 2


def opcode_of(header: int) -> Opcode:
    """The opcode field (bits 28:27) of a packet header word.

    Code 3 is reserved; a header carrying it is a malformed stream.
    """
    code = (header >> 27) & 0b11
    if code == 0b11:
        raise BitstreamFormatError(
            f"reserved opcode 3 in packet header {header:#010x}")
    return Opcode(code)


class ConfigRegister(enum.IntEnum):
    """Virtex-5 configuration register addresses (UG191 table 6-5)."""

    CRC = 0
    FAR = 1
    FDRI = 2
    FDRO = 3
    CMD = 4
    CTL0 = 5
    MASK = 6
    STAT = 7
    LOUT = 8
    COR0 = 9
    MFWR = 10
    CBC = 11
    IDCODE = 12
    AXSS = 13
    COR1 = 14
    WBSTAR = 16
    TIMER = 17


class Command(enum.IntEnum):
    """CMD register command codes (UG191 table 6-6)."""

    NULL = 0
    WCFG = 1
    MFW = 2
    LFRM = 3
    RCFG = 4
    START = 5
    RCAP = 6
    RCRC = 7
    AGHIGH = 8
    SWITCH = 9
    GRESTORE = 10
    SHUTDOWN = 11
    GCAPTURE = 12
    DESYNC = 13
    IPROG = 15


@dataclass
class ConfigPacket:
    """A decoded configuration packet (header + payload words)."""

    opcode: Opcode
    register: ConfigRegister
    payload: List[int] = field(default_factory=list)
    type2: bool = False

    def encode(self) -> List[int]:
        """Encode to header word(s) + payload words."""
        for word in self.payload:
            if not 0 <= word < (1 << 32):
                raise BitstreamFormatError(f"payload word {word:#x} not 32-bit")
        count = len(self.payload)
        if self.type2:
            if count > _TYPE2_MAX_WORDS:
                raise BitstreamFormatError("type-2 payload too large")
            # A type-2 packet must follow a type-1 naming the register;
            # encode() emits the leading type-1 with zero payload.
            head1 = _type1_header(self.opcode, self.register, 0)
            head2 = (0b010 << 29) | (int(self.opcode) << 27) | count
            return [head1, head2, *self.payload]
        if count > _TYPE1_MAX_WORDS:
            raise BitstreamFormatError(
                f"type-1 payload of {count} words exceeds "
                f"{_TYPE1_MAX_WORDS}; use type2=True"
            )
        return [_type1_header(self.opcode, self.register, count),
                *self.payload]


def _type1_header(opcode: Opcode, register: ConfigRegister,
                  count: int) -> int:
    return (
        (0b001 << 29)
        | (int(opcode) << 27)
        | (int(register) << 13)
        | count
    )


def type2_write_headers(register: ConfigRegister, count: int,
                        opcode: Opcode = Opcode.WRITE) -> List[int]:
    """Header words of a type-1 + type-2 write, without its payload.

    Lets the generator splice an already-serialized payload between
    the headers and the epilogue instead of materialising the payload
    as a word list just to encode the packet around it.
    """
    if not 0 <= count <= _TYPE2_MAX_WORDS:
        raise BitstreamFormatError("type-2 payload too large")
    return [_type1_header(opcode, register, 0),
            (0b010 << 29) | (int(opcode) << 27) | count]


def write_packet(register: ConfigRegister,
                 payload: Sequence[int]) -> ConfigPacket:
    """Convenience for the common type-1 register write."""
    return ConfigPacket(Opcode.WRITE, register, list(payload))


def command_packet(command: Command) -> ConfigPacket:
    return write_packet(ConfigRegister.CMD, [int(command)])


def noop_packets(count: int) -> List[ConfigPacket]:
    return [ConfigPacket(Opcode.NOP, ConfigRegister.CRC) for _ in range(count)]


class PacketDecoder:
    """Stream decoder for the word sequence after the sync word."""

    def __init__(self, words: Sequence[int]) -> None:
        self._words = list(words)
        self._index = 0

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._words)

    def decode_all(self) -> List[ConfigPacket]:
        packets = []
        while not self.exhausted:
            packets.append(self.decode_one())
        return packets

    def decode_one(self) -> ConfigPacket:
        header = self._take("packet header")
        ptype = header >> 29
        opcode = opcode_of(header)
        if ptype == 0b001:
            register = self._register_of(header)
            count = header & _TYPE1_MAX_WORDS
            payload = [self._take("type-1 payload") for _ in range(count)]
            # Merge an immediately following type-2 continuation.
            if not self.exhausted and (self._peek() >> 29) == 0b010:
                head2 = self._take("type-2 header")
                count2 = head2 & _TYPE2_MAX_WORDS
                payload2 = [self._take("type-2 payload") for _ in range(count2)]
                return ConfigPacket(opcode, register, payload + payload2,
                                    type2=True)
            return ConfigPacket(opcode, register, payload)
        if ptype == 0b010:
            raise BitstreamFormatError(
                "orphan type-2 packet (no preceding type-1)"
            )
        raise BitstreamFormatError(f"unknown packet type {ptype:#05b}")

    def _register_of(self, header: int) -> ConfigRegister:
        address = (header >> 13) & 0x3FFF
        try:
            return ConfigRegister(address)
        except ValueError:
            raise BitstreamFormatError(
                f"unknown configuration register address {address}"
            ) from None

    def _take(self, what: str) -> int:
        if self.exhausted:
            raise BitstreamFormatError(f"truncated stream while reading {what}")
        word = self._words[self._index]
        self._index += 1
        return word

    def _peek(self) -> int:
        return self._words[self._index]


def words_to_bytes(words: Sequence[int]) -> bytes:
    """Big-endian word serialization (configuration byte order).

    Dispatches to the active :mod:`repro.accel` backend; raises
    :class:`OverflowError` for words outside 32 bits regardless of
    backend.
    """
    return accel.words_to_bytes(words)


def bytes_to_words(data: bytes) -> List[int]:
    """Inverse of :func:`words_to_bytes` (word-aligned input only)."""
    return accel.bytes_to_words(data)
