"""Configuration packet encode/decode."""

import pytest

from repro.bitstream.format import (
    Command,
    ConfigPacket,
    ConfigRegister,
    Opcode,
    PacketDecoder,
    bytes_to_words,
    command_packet,
    noop_packets,
    words_to_bytes,
    write_packet,
)
from repro.errors import BitstreamFormatError


def test_type1_write_encode():
    packet = write_packet(ConfigRegister.IDCODE, [0x02E9A093])
    words = packet.encode()
    assert len(words) == 2
    header = words[0]
    assert header >> 29 == 0b001
    assert (header >> 27) & 0b11 == int(Opcode.WRITE)
    assert (header >> 13) & 0x3FFF == int(ConfigRegister.IDCODE)
    assert header & 0x7FF == 1
    assert words[1] == 0x02E9A093


def test_command_packet():
    words = command_packet(Command.WCFG).encode()
    assert words[1] == int(Command.WCFG)


def test_type1_roundtrip():
    packet = write_packet(ConfigRegister.FAR, [0x1234])
    decoded = PacketDecoder(packet.encode()).decode_all()
    assert len(decoded) == 1
    assert decoded[0].register is ConfigRegister.FAR
    assert decoded[0].payload == [0x1234]


def test_type2_roundtrip_large_payload():
    payload = list(range(5000))
    packet = ConfigPacket(Opcode.WRITE, ConfigRegister.FDRI, payload,
                          type2=True)
    decoded = PacketDecoder(packet.encode()).decode_all()
    assert len(decoded) == 1
    assert decoded[0].type2
    assert decoded[0].payload == payload


def test_type1_payload_limit():
    with pytest.raises(BitstreamFormatError):
        ConfigPacket(Opcode.WRITE, ConfigRegister.FDRI,
                     [0] * 2048).encode()


def test_payload_word_must_be_32bit():
    with pytest.raises(BitstreamFormatError):
        ConfigPacket(Opcode.WRITE, ConfigRegister.FDRI, [1 << 32]).encode()


def test_orphan_type2_rejected():
    orphan = (0b010 << 29) | 1
    with pytest.raises(BitstreamFormatError):
        PacketDecoder([orphan, 0]).decode_all()


def test_truncated_payload_rejected():
    packet = write_packet(ConfigRegister.FAR, [1, 2, 3])
    words = packet.encode()[:-1]
    with pytest.raises(BitstreamFormatError):
        PacketDecoder(words).decode_all()


def test_unknown_register_rejected():
    header = (0b001 << 29) | (31 << 13)  # register 31 undefined
    with pytest.raises(BitstreamFormatError):
        PacketDecoder([header]).decode_all()


def test_unknown_packet_type_rejected():
    with pytest.raises(BitstreamFormatError):
        PacketDecoder([0b101 << 29]).decode_all()


def test_reserved_opcode_rejected():
    # Opcode 3 is reserved: a typed format error, not a bare ValueError.
    header = (0b001 << 29) | (3 << 27) | (int(ConfigRegister.FAR) << 13)
    with pytest.raises(BitstreamFormatError, match="reserved opcode"):
        PacketDecoder([header, 0]).decode_all()


def test_noop_packets():
    packets = noop_packets(3)
    assert len(packets) == 3
    assert all(p.opcode is Opcode.NOP for p in packets)


def test_words_bytes_roundtrip():
    words = [0xAA995566, 0x00000000, 0xFFFFFFFF, 0x12345678]
    assert bytes_to_words(words_to_bytes(words)) == words


def test_words_to_bytes_big_endian():
    assert words_to_bytes([0xAA995566]) == b"\xaa\x99\x55\x66"


def test_bytes_to_words_alignment_enforced():
    with pytest.raises(BitstreamFormatError):
        bytes_to_words(b"\x00\x01\x02")
