"""Frame-address packing and enumeration."""

import dataclasses

import pytest

from repro.bitstream.device import VIRTEX4_FX60, VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.frames import (
    BlockType,
    FrameAddress,
    frame_layout,
    region_frames,
)
from repro.errors import BitstreamFormatError


def test_pack_unpack_roundtrip():
    address = FrameAddress(BlockType.CLB_IO_CLK, top=1, row=3,
                           column=17, minor=5)
    assert FrameAddress.unpack(address.pack()) == address


def test_pack_zero():
    assert FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0).pack() == 0


def test_pack_field_positions():
    address = FrameAddress(BlockType.BRAM_CONTENT, top=0, row=0,
                           column=0, minor=1)
    raw = address.pack()
    assert raw & 0x7F == 1                 # minor in low bits
    assert (raw >> 21) & 0b111 == 1        # block type field


def test_field_range_enforced():
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=2, row=0, column=0, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=32, column=0, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0, column=256, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0, column=0, minor=128)


def test_unpack_invalid_block_type():
    with pytest.raises(BitstreamFormatError):
        FrameAddress.unpack(0b111 << 21)


def test_unpack_oversized_raises():
    with pytest.raises(BitstreamFormatError):
        FrameAddress.unpack(1 << 32)


def test_next_in_advances_minor():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.minor == 1
    assert successor.column == 4


def test_next_in_wraps_minor_into_column():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4,
                         VIRTEX5_SX50T.minor_frames_clb - 1)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.minor == 0
    assert successor.column == 5


def test_next_in_wraps_column_into_row():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0,
                         VIRTEX5_SX50T.columns - 1,
                         VIRTEX5_SX50T.minor_frames_clb - 1)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.column == 0
    assert successor.row == 1


def test_region_frames_counts_and_is_strictly_advancing():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    frames = list(region_frames(VIRTEX5_SX50T, start, 100))
    assert len(frames) == 100
    assert len({frame.pack() for frame in frames}) == 100


def test_region_frames_negative_count():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        list(region_frames(VIRTEX5_SX50T, start, -1))


def test_frame_layout_memoised_per_device():
    assert frame_layout(VIRTEX5_SX50T) is frame_layout(VIRTEX5_SX50T)
    assert frame_layout(VIRTEX5_SX50T) is not frame_layout(VIRTEX4_FX60)


def test_frame_layout_keyed_by_device_value_not_object():
    # DeviceInfo is frozen, so the memo key is the device's *value*:
    # an equal copy shares the table, a geometry change gets its own.
    clone = dataclasses.replace(VIRTEX5_SX50T)
    assert clone is not VIRTEX5_SX50T
    assert frame_layout(clone) is frame_layout(VIRTEX5_SX50T)
    narrower = dataclasses.replace(VIRTEX5_SX50T, columns=40)
    layout = frame_layout(narrower)
    assert layout is not frame_layout(VIRTEX5_SX50T)
    assert len(layout) < len(frame_layout(VIRTEX5_SX50T))


def test_frame_layout_successor_matches_arithmetic():
    address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    layout = frame_layout(VIRTEX5_SX50T)
    for _ in range(3 * VIRTEX5_SX50T.minor_frames_clb + 5):
        expected = address._next_arithmetic(VIRTEX5_SX50T)
        assert layout.successor(address) == expected
        assert address.next_in(VIRTEX5_SX50T) == expected
        address = expected


def test_next_in_outside_geometry_falls_back_to_arithmetic():
    # An address past the device's column range is not in the layout
    # table; next_in must still advance it (arithmetic fallback).
    address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 200, 0)
    layout = frame_layout(VIRTEX5_SX50T)
    assert layout.successor(address) is None
    assert address.next_in(VIRTEX5_SX50T) == \
        address._next_arithmetic(VIRTEX5_SX50T)


# -- the packed FrameLayout contract ------------------------------------

LAYOUT_DEVICES = (VIRTEX4_FX60, VIRTEX5_SX50T, VIRTEX6_LX240T)


def _arithmetic_walk(device, start, count):
    """``count`` packed FARs from ``start`` plus the next address."""
    fars = []
    address = start
    for _ in range(count):
        fars.append(address.pack())
        address = address._next_arithmetic(device)
    return fars, address


def _next_in_walk(device, start, count):
    fars = []
    address = start
    for _ in range(count):
        fars.append(address.pack())
        address = address.next_in(device)
    return fars, address


@pytest.mark.parametrize("block_type", list(BlockType))
@pytest.mark.parametrize("device", LAYOUT_DEVICES,
                         ids=lambda device: device.name)
def test_layout_packed_is_the_arithmetic_cycle(device, block_type):
    layout = frame_layout(device, block_type)
    start = FrameAddress(block_type, 0, 0, 0, 0)
    fars, following = _arithmetic_walk(device, start, len(layout))
    assert list(layout.packed) == fars
    assert following == start  # the cycle closes


def _run_starts(device):
    cycle_end = FrameAddress.unpack(frame_layout(device).packed[-1])
    return {
        "in-geometry": FrameAddress(BlockType.CLB_IO_CLK, 0, 1, 7, 3),
        "cycle-end": cycle_end,
        "out-of-geometry": FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 200, 3),
        "other-block-type": FrameAddress(BlockType.BRAM_CONTENT, 1, 0, 5, 2),
    }


@pytest.mark.parametrize("count", [0, 1, 37, 500])
@pytest.mark.parametrize("start_name", ["in-geometry", "cycle-end",
                                        "out-of-geometry",
                                        "other-block-type"])
@pytest.mark.parametrize("device", LAYOUT_DEVICES,
                         ids=lambda device: device.name)
def test_layout_run_equals_repeated_steps(device, start_name, count):
    start = _run_starts(device)[start_name]
    expected = _arithmetic_walk(device, start, count)
    assert _next_in_walk(device, start, count) == expected
    assert frame_layout(device, start.block_type).run(start, count) \
        == expected
    # A layout of another block type never contains the start, so the
    # whole run takes the arithmetic steps.
    other = frame_layout(device, BlockType.BRAM_INTERCONNECT
                         if start.block_type is BlockType.CLB_IO_CLK
                         else BlockType.CLB_IO_CLK)
    assert other.run(start, count) == expected


def test_layout_run_wraps_more_than_one_cycle():
    layout = frame_layout(VIRTEX4_FX60)
    start = FrameAddress.unpack(layout.packed[-2])
    count = 2 * len(layout) + 5
    assert layout.run(start, count) == \
        _arithmetic_walk(VIRTEX4_FX60, start, count)


def test_layout_run_negative_count():
    with pytest.raises(ValueError):
        frame_layout(VIRTEX5_SX50T).run(
            FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0), -1)


def test_layout_rejects_geometry_beyond_far_fields():
    too_wide = dataclasses.replace(VIRTEX5_SX50T, columns=300)
    with pytest.raises(BitstreamFormatError):
        frame_layout(too_wide)
