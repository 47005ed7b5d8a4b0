"""Reconfigurable-region floorplan.

A deployed partial-reconfiguration system divides the FPGA into static
logic plus one or more *reconfigurable partitions*, each a rectangle
of configuration frames.  The paper's evaluation uses a single region;
a production controller serves several (the scheduler's pipeline, the
TMR lanes of the fault-tolerance example).  This module provides the
bookkeeping a multi-region system needs:

* :class:`Region` — a named span of consecutive frames with an origin
  FAR;
* :class:`Floorplan` — a set of non-overlapping regions on a device,
  with placement validation and bitstream-to-region matching (a
  partial bitstream carries its target FAR; loading it into the wrong
  region is a configuration error the silicon would *not* catch, so
  the floorplan catches it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.bitstream.device import DeviceInfo
from repro.bitstream.format import ConfigRegister, Opcode
from repro.bitstream.frames import FrameAddress, frame_layout, region_frames
from repro.bitstream.generator import PartialBitstream
from repro.errors import BitstreamError, CapacityError
from repro.units import DataSize


@dataclass(frozen=True)
class Region:
    """One reconfigurable partition: ``frame_count`` frames at ``origin``."""

    name: str
    origin: FrameAddress
    frame_count: int

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise BitstreamError(
                f"region {self.name!r}: frame count must be positive"
            )

    def frames(self, device: DeviceInfo) -> List[FrameAddress]:
        return list(region_frames(device, self.origin, self.frame_count))

    def frame_set(self, device: DeviceInfo) -> Set[int]:
        fars, _ = frame_layout(device, self.origin.block_type).run(
            self.origin, self.frame_count)
        return set(fars)

    def capacity(self, device: DeviceInfo) -> DataSize:
        """Raw frame-data capacity of the region."""
        return DataSize(self.frame_count * device.frame_bytes)

    def __str__(self) -> str:
        return (f"{self.name} @ col{self.origin.column}"
                f".minor{self.origin.minor} x{self.frame_count}")


class Floorplan:
    """Non-overlapping regions on one device."""

    def __init__(self, device: DeviceInfo) -> None:
        self.device = device
        self._regions: Dict[str, Region] = {}
        self._claimed: Set[int] = set()

    @property
    def regions(self) -> List[Region]:
        return list(self._regions.values())

    def add_region(self, region: Region) -> Region:
        """Place a region; rejects duplicates and frame overlaps."""
        if region.name in self._regions:
            raise BitstreamError(
                f"region name {region.name!r} already placed"
            )
        frames = region.frame_set(self.device)
        overlap = frames & self._claimed
        if overlap:
            clashing = [other.name for other in self._regions.values()
                        if other.frame_set(self.device) & overlap]
            raise BitstreamError(
                f"region {region.name!r} overlaps {clashing}"
            )
        self._regions[region.name] = region
        self._claimed |= frames
        return region

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            known = ", ".join(sorted(self._regions)) or "(none)"
            raise KeyError(
                f"unknown region {name!r}; placed regions: {known}"
            ) from None

    # -- bitstream matching ------------------------------------------------

    @staticmethod
    def bitstream_origin(bitstream: PartialBitstream
                         ) -> Optional[FrameAddress]:
        """The FAR a partial bitstream targets (its first FAR write)."""
        words = bitstream.raw_words
        index = 0
        while index < len(words) - 1:
            word = words[index]
            if word >> 29 == 0b001:
                register = (word >> 13) & 0x3FFF
                opcode = (word >> 27) & 0b11
                count = word & 0x7FF
                if (register == int(ConfigRegister.FAR)
                        and opcode == int(Opcode.WRITE) and count >= 1):
                    return FrameAddress.unpack(words[index + 1])
                index += 1 + count
            else:
                index += 1
        return None

    def match(self, bitstream: PartialBitstream) -> Region:
        """The region this bitstream targets; validates fit.

        Raises :class:`CapacityError` when the bitstream's frame span
        does not lie inside any placed region, or targets a region but
        overruns it.
        """
        origin = self.bitstream_origin(bitstream)
        if origin is None:
            raise BitstreamError(
                "bitstream carries no FAR write; cannot place it"
            )
        for candidate in self._regions.values():
            if candidate.origin == origin:
                if bitstream.frame_count > candidate.frame_count:
                    raise CapacityError(
                        f"bitstream of {bitstream.frame_count} frames "
                        f"overruns region {candidate.name!r} "
                        f"({candidate.frame_count} frames)"
                    )
                return candidate
        raise CapacityError(
            f"no region at FAR {origin} "
            f"(column {origin.column}, minor {origin.minor})"
        )

    def validate(self, bitstream: PartialBitstream,
                 region_name: str) -> Region:
        """Assert the bitstream targets exactly the named region."""
        region = self.region(region_name)
        matched = self.match(bitstream)
        if matched is not region:
            raise CapacityError(
                f"bitstream targets region {matched.name!r}, "
                f"not {region_name!r}"
            )
        return region
