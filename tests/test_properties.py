"""Cross-cutting hypothesis property tests.

Invariants of the substrates that the example-based tests cannot
cover exhaustively: FAR pack/unpack bijection, frame-enumeration
injectivity, packet encode/decode inversion, unit arithmetic, DCM
grid correctness, and configuration-CRC sensitivity.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream.crc import ConfigCrc
from repro.bitstream.device import VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.format import (
    ConfigPacket,
    ConfigRegister,
    Opcode,
    PacketDecoder,
    bytes_to_words,
    words_to_bytes,
)
from repro.bitstream.frames import BlockType, FrameAddress, frame_layout
from repro.fpga.dcm import DcmSettings, best_settings
from repro.units import DataSize, Frequency

# -- FAR ---------------------------------------------------------------

far_fields = st.tuples(
    st.sampled_from(list(BlockType)),
    st.integers(0, 1),
    st.integers(0, 31),
    st.integers(0, 255),
    st.integers(0, 127),
)


@given(far_fields)
def test_far_pack_unpack_bijection(fields):
    block, top, row, column, minor = fields
    address = FrameAddress(block, top, row, column, minor)
    assert FrameAddress.unpack(address.pack()) == address


@given(far_fields, far_fields)
def test_far_pack_injective(first_fields, second_fields):
    first = FrameAddress(*first_fields)
    second = FrameAddress(*second_fields)
    if first != second:
        assert first.pack() != second.pack()


@pytest.fixture(scope="module")
def frame_layouts():
    """Every layout the enumeration walks, built before the timed examples.

    A cold ``FrameLayout`` for the Virtex-6 takes about 20 ms (one
    comprehension over 67,392 packed FARs), which would otherwise land
    inside the first example's deadline for each (device, block type).
    """
    return [frame_layout(device, block_type)
            for device in (VIRTEX5_SX50T, VIRTEX6_LX240T)
            for block_type in BlockType]


@given(far_fields, st.integers(1, 300),
       st.sampled_from([VIRTEX5_SX50T, VIRTEX6_LX240T]))
def test_frame_enumeration_is_injective(frame_layouts, fields, count,
                                        device):
    start = FrameAddress(*fields)
    from repro.bitstream.frames import region_frames
    frames = list(region_frames(device, start, count))
    assert len({frame.pack() for frame in frames}) == count


# -- packets ------------------------------------------------------------

registers = st.sampled_from(list(ConfigRegister))
small_payload = st.lists(st.integers(0, 2**32 - 1), max_size=30)


@given(registers, small_payload)
def test_type1_packet_roundtrip(register, payload):
    packet = ConfigPacket(Opcode.WRITE, register, payload)
    decoded = PacketDecoder(packet.encode()).decode_all()
    assert len(decoded) == 1
    assert decoded[0].register is register
    assert decoded[0].payload == payload


@given(registers, st.lists(st.integers(0, 2**32 - 1), min_size=1,
                           max_size=5000))
def test_type2_packet_roundtrip(register, payload):
    packet = ConfigPacket(Opcode.WRITE, register, payload, type2=True)
    decoded = PacketDecoder(packet.encode()).decode_all()
    assert decoded[0].payload == payload


@given(st.lists(st.integers(0, 2**32 - 1), max_size=200))
def test_word_byte_serialization_roundtrip(words):
    assert bytes_to_words(words_to_bytes(words)) == words


# -- units ----------------------------------------------------------------

frequencies = st.integers(1_000_000, 1_000_000_000).map(Frequency)


@given(frequencies, st.integers(0, 100_000))
def test_cycles_duration_monotone(frequency, cycles):
    assert frequency.duration_of(cycles + 1) > frequency.duration_of(cycles)


@given(frequencies)
def test_period_within_rounding(frequency):
    exact = 1e12 / frequency.hertz
    assert abs(frequency.period_ps - exact) <= 0.5


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_datasize_addition_commutes(first, second):
    a, b = DataSize(first), DataSize(second)
    assert (a + b) == (b + a)
    assert (a + b).bytes == first + second


@given(st.integers(0, 10**8))
def test_words_round_up(size_bytes: int):
    size = DataSize(size_bytes)
    assert size.words * 4 >= size_bytes
    assert (size.words - 1) * 4 < size_bytes or size.words == 0


# -- DCM grid ------------------------------------------------------------

@given(st.integers(2, 33), st.integers(1, 32))
def test_dcm_settings_output_exact(multiplier, divisor):
    f_in = Frequency.from_mhz(100)
    settings = DcmSettings(multiplier, divisor)
    assert settings.output(f_in).hertz == round(
        f_in.hertz * multiplier / divisor)


@settings(max_examples=50)
@given(st.floats(min_value=35.0, max_value=380.0,
                 allow_nan=False, allow_infinity=False))
def test_best_settings_is_optimal_on_grid(target_mhz):
    f_in = Frequency.from_mhz(100)
    target = Frequency.from_mhz(target_mhz)
    chosen = best_settings(f_in, target)
    chosen_error = abs(chosen.output(f_in).hertz - target.hertz)
    # No legal pair does strictly better.
    for multiplier in range(2, 34):
        for divisor in range(1, 33):
            output = f_in.scaled(multiplier, divisor)
            if output < Frequency.from_mhz(32) \
                    or output > Frequency.from_mhz(400):
                continue
            assert abs(output.hertz - target.hertz) >= chosen_error


# -- configuration CRC -------------------------------------------------------

write_sequences = st.lists(
    st.tuples(st.integers(0, 17), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=100)


@given(write_sequences)
def test_config_crc_deterministic(writes):
    first = ConfigCrc()
    second = ConfigCrc()
    for register, word in writes:
        first.update(register, word)
        second.update(register, word)
    assert first.value == second.value
    assert first.check(second.value)


@given(write_sequences, st.integers(0, 31))
def test_config_crc_detects_single_word_corruption(writes, flip_bit):
    clean = ConfigCrc()
    corrupt = ConfigCrc()
    for register, word in writes[:-1]:
        clean.update(register, word)
        corrupt.update(register, word)
    register, word = writes[-1]
    clean.update(register, word)
    corrupt.update(register, word ^ (1 << flip_bit))
    assert clean.value != corrupt.value
