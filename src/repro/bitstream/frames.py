"""Configuration frame addressing (FAR).

The Frame Address Register selects which column of configuration
memory a frame write lands in.  We implement the Virtex-5 FAR layout
(UG191 table 6-10) — block type / top-bottom / row / column / minor —
with pack/unpack round-tripping, plus a linear enumeration used by the
generator to lay a partial region out as consecutive frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.bitstream.device import DeviceInfo
from repro.errors import BitstreamFormatError


class BlockType(enum.IntEnum):
    """FAR block-type field values (Virtex-5)."""

    CLB_IO_CLK = 0
    BRAM_CONTENT = 1
    BRAM_INTERCONNECT = 2  # virtex-4 only; kept for the baseline device


# Field widths of the Virtex-5 FAR (LSB first): minor 7, column 8,
# row 5, top/bottom 1, block type 3.
_MINOR_BITS = 7
_COLUMN_BITS = 8
_ROW_BITS = 5
_TOP_BITS = 1
_TYPE_BITS = 3

_MINOR_SHIFT = 0
_COLUMN_SHIFT = _MINOR_BITS
_ROW_SHIFT = _COLUMN_SHIFT + _COLUMN_BITS
_TOP_SHIFT = _ROW_SHIFT + _ROW_BITS
_TYPE_SHIFT = _TOP_SHIFT + _TOP_BITS

_MINOR_LIMIT = 1 << _MINOR_BITS
_COLUMN_LIMIT = 1 << _COLUMN_BITS
_ROW_LIMIT = 1 << _ROW_BITS
_TOP_LIMIT = 1 << _TOP_BITS

_BLOCK_TYPES: Dict[int, BlockType] = {int(block): block for block in BlockType}


@dataclass(frozen=True, order=True)
class FrameAddress:
    """A decoded frame address."""

    block_type: BlockType
    top: int       # 0 = top half, 1 = bottom half
    row: int
    column: int
    minor: int

    def __post_init__(self) -> None:
        if (0 <= self.top < _TOP_LIMIT and 0 <= self.row < _ROW_LIMIT
                and 0 <= self.column < _COLUMN_LIMIT
                and 0 <= self.minor < _MINOR_LIMIT):
            return
        checks = (
            (self.top, _TOP_BITS, "top"),
            (self.row, _ROW_BITS, "row"),
            (self.column, _COLUMN_BITS, "column"),
            (self.minor, _MINOR_BITS, "minor"),
        )
        for value, bits, label in checks:
            if not 0 <= value < (1 << bits):
                raise BitstreamFormatError(
                    f"FAR field {label}={value} outside {bits}-bit range"
                )

    def pack(self) -> int:
        """Encode to the 32-bit FAR register value."""
        return (
            (int(self.block_type) << _TYPE_SHIFT)
            | (self.top << _TOP_SHIFT)
            | (self.row << _ROW_SHIFT)
            | (self.column << _COLUMN_SHIFT)
            | (self.minor << _MINOR_SHIFT)
        )

    @classmethod
    def unpack(cls, raw: int) -> "FrameAddress":
        """Decode a 32-bit FAR register value."""
        if not 0 <= raw < (1 << 32):
            raise BitstreamFormatError(f"FAR value {raw:#x} is not 32-bit")
        block = (raw >> _TYPE_SHIFT) & ((1 << _TYPE_BITS) - 1)
        block_type = _BLOCK_TYPES.get(block)
        if block_type is None:
            raise BitstreamFormatError(
                f"FAR block type {block} is not defined"
            )
        return cls(block_type,
                   (raw >> _TOP_SHIFT) & (_TOP_LIMIT - 1),
                   (raw >> _ROW_SHIFT) & (_ROW_LIMIT - 1),
                   (raw >> _COLUMN_SHIFT) & (_COLUMN_LIMIT - 1),
                   (raw >> _MINOR_SHIFT) & (_MINOR_LIMIT - 1))

    def next_in(self, device: DeviceInfo) -> "FrameAddress":
        """The frame address following this one in device order.

        Advances minor, then column, then row, then top/bottom —
        the auto-increment order the configuration logic applies when
        consecutive frames stream through FDRI.  One step of
        :meth:`FrameLayout.run`: an in-geometry address is an index
        into the device's memoised packed layout, and an
        out-of-geometry one (a parsed FAR can carry any field values)
        takes the arithmetic step.  Walks of many frames call ``run``
        once instead of this once per frame.
        """
        return frame_layout(device, self.block_type).run(self, 1)[1]

    def _next_arithmetic(self, device: DeviceInfo) -> "FrameAddress":
        """Field-arithmetic successor (the FrameLayout ground truth)."""
        minor = self.minor + 1
        column, row, top = self.column, self.row, self.top
        if minor >= device.minor_frames_clb:
            minor = 0
            column += 1
            if column >= device.columns:
                column = 0
                row += 1
                if row >= max(1, device.rows // 2):
                    row = 0
                    top ^= 1
        return FrameAddress(self.block_type, top, row, column, minor)


class FrameLayout:
    """Memoised linear frame order for one device and block type.

    ``packed`` is the device's full FAR cycle as packed register
    values, in the auto-increment order of
    :meth:`FrameAddress._next_arithmetic` (top, row, column, minor,
    minor fastest), so a walk of ``n`` consecutive frames is one slice
    of it instead of ``n`` successor lookups.  ``_position`` maps a
    packed FAR back to its index in the cycle.
    """

    __slots__ = ("device", "block_type", "packed", "_position")

    def __init__(self, device: DeviceInfo, block_type: BlockType) -> None:
        self.device = device
        self.block_type = block_type
        minors = device.minor_frames_clb
        columns = device.columns
        rows = max(1, device.rows // 2)
        if minors > 0 and columns > 0:
            # The highest address of the cycle: raises if the geometry
            # overflows a FAR field, as the arithmetic walk would.
            FrameAddress(block_type, 1, rows - 1, columns - 1, minors - 1)
        base = int(block_type) << _TYPE_SHIFT
        self.packed: Tuple[int, ...] = tuple(
            base | (top << _TOP_SHIFT) | (row << _ROW_SHIFT)
            | (column << _COLUMN_SHIFT) | minor
            for top in (0, 1)
            for row in range(rows)
            for column in range(columns)
            for minor in range(minors)
        )
        self._position: Dict[int, int] = {
            far: index for index, far in enumerate(self.packed)}

    def run(self, start: FrameAddress,
            count: int) -> Tuple[List[int], FrameAddress]:
        """``count`` consecutive packed FARs from ``start``, and the next.

        Equal to ``count`` repeated :meth:`FrameAddress.next_in` steps.
        A start outside this layout (out of the device geometry, or of
        another block type) takes arithmetic steps until it enters the
        layout; from there the walk is a slice of ``packed`` that wraps
        at the end of the cycle.
        """
        if count < 0:
            raise ValueError("frame count must be non-negative")
        fars: List[int] = []
        address = start
        far = address.pack()
        index = self._position.get(far)
        while index is None and len(fars) < count:
            fars.append(far)
            address = address._next_arithmetic(self.device)
            far = address.pack()
            index = self._position.get(far)
        if index is None or len(fars) == count:
            return fars, address
        packed = self.packed
        remaining = count - len(fars)
        while remaining:
            take = min(remaining, len(packed) - index)
            fars += packed[index:index + take]
            remaining -= take
            index = (index + take) % len(packed)
        return fars, FrameAddress.unpack(packed[index])

    def successor(self, address: FrameAddress):
        """The next in-geometry address, or None if out of geometry."""
        if address.pack() not in self._position:
            return None
        return self.run(address, 1)[1]

    def __len__(self) -> int:
        return len(self.packed)


_LAYOUTS: Dict[Tuple[DeviceInfo, BlockType], FrameLayout] = {}


def frame_layout(device: DeviceInfo,
                 block_type: BlockType = BlockType.CLB_IO_CLK) -> FrameLayout:
    """The memoised :class:`FrameLayout` for ``device``/``block_type``.

    Keyed by the (frozen, hashable) :class:`DeviceInfo` value itself:
    two equal device descriptions share one layout, and a device with
    different frame geometry always gets its own — the memo can never
    serve stale state because its key objects are immutable.
    """
    key = (device, block_type)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = FrameLayout(device, block_type)
    return layout


def region_frames(device: DeviceInfo, start: FrameAddress,
                  count: int) -> Iterator[FrameAddress]:
    """Enumerate ``count`` consecutive frame addresses from ``start``."""
    fars, _ = frame_layout(device, start.block_type).run(start, count)
    for far in fars:
        yield FrameAddress.unpack(far)
