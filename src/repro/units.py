"""Physical-unit value types used across the simulator.

The discrete-event kernel counts time in integer **picoseconds** so that
clock periods derived from DCM ``F_in * M / D`` synthesis stay exact for
every frequency the paper uses (e.g. 362.5 MHz has a period of
2758.62... ps; we round to the nearest picosecond and keep the error
below one part in 10^3 over a full reconfiguration, far below the
measurement noise of the original testbed).

Three small frozen value types are provided:

* :class:`Frequency` — stored in hertz.
* :class:`TimePS` helpers — plain ``int`` picoseconds with conversion
  functions, because simulation timestamps are hot-path values.
* :class:`DataSize` — stored in bytes, with the KB/MB conventions the
  paper uses (binary: 1 KB = 1024 B), and bandwidth helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import UnitError

# One second, millisecond, microsecond, nanosecond in picoseconds.
PS_PER_S = 1_000_000_000_000
PS_PER_MS = 1_000_000_000
PS_PER_US = 1_000_000
PS_PER_NS = 1_000

BYTES_PER_KB = 1024
BYTES_PER_MB = 1024 * 1024
BYTES_PER_GB = 1024 * 1024 * 1024

WORD_BYTES = 4  # ICAP and BRAM data paths in this system are 32-bit.


@dataclass(frozen=True, order=True)
class Frequency:
    """A clock frequency, stored exactly in hertz.

    Instances are immutable and totally ordered, so frequency envelopes
    (``freq <= component.max_frequency``) read naturally.  A
    non-finite or non-positive value raises :class:`UnitError`.
    """

    hertz: int

    def __post_init__(self) -> None:
        _require_finite("frequency", self.hertz, "Hz")
        if self.hertz <= 0:
            raise UnitError(f"frequency must be positive, got {self.hertz} Hz")

    @classmethod
    def from_mhz(cls, mhz: float) -> "Frequency":
        """Build a frequency from megahertz (the paper's unit)."""
        _require_finite("frequency", mhz, "MHz")
        return cls(round(mhz * 1_000_000))

    @classmethod
    def from_khz(cls, khz: float) -> "Frequency":
        _require_finite("frequency", khz, "kHz")
        return cls(round(khz * 1_000))

    @property
    def mhz(self) -> float:
        return self.hertz / 1_000_000

    @property
    def period_ps(self) -> int:
        """Clock period in integer picoseconds (rounded to nearest)."""
        return max(1, round(PS_PER_S / self.hertz))

    def cycles_in(self, duration_ps: int) -> int:
        """Whole clock cycles that fit in ``duration_ps`` picoseconds."""
        return duration_ps // self.period_ps

    def duration_of(self, cycles: int) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds."""
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        return cycles * self.period_ps

    def scaled(self, mult: int, div: int) -> "Frequency":
        """``F_out = F_in * M / D`` — the DCM synthesis equation."""
        if mult <= 0 or div <= 0:
            raise ValueError("M and D must be positive")
        return Frequency(round(self.hertz * mult / div))

    def __str__(self) -> str:
        return f"{self.mhz:g} MHz"


def _require_finite(quantity: str, value: float, unit: str) -> None:
    """Reject NaN and infinities before they reach ``round``.

    ``round`` turns them into a bare ``ValueError`` (NaN) or
    ``OverflowError`` (infinity) far from the offending input.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise UnitError(f"{quantity} must be finite, got {value} {unit}")


@dataclass(frozen=True, order=True)
class DataSize:
    """A payload size in bytes, with the binary-KB convention.

    A negative size, or NaN or an infinity given to ``from_kb`` /
    ``from_mb``, raises :class:`UnitError`.
    """

    bytes: int

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise UnitError(f"size must be non-negative, got {self.bytes}")

    @classmethod
    def from_kb(cls, kb: float) -> "DataSize":
        _require_finite("size", kb, "KB")
        return cls(round(kb * BYTES_PER_KB))

    @classmethod
    def from_mb(cls, mb: float) -> "DataSize":
        _require_finite("size", mb, "MB")
        return cls(round(mb * BYTES_PER_MB))

    @classmethod
    def from_words(cls, words: int) -> "DataSize":
        return cls(words * WORD_BYTES)

    @property
    def kb(self) -> float:
        return self.bytes / BYTES_PER_KB

    @property
    def mb(self) -> float:
        return self.bytes / BYTES_PER_MB

    @property
    def words(self) -> int:
        """Size in whole 32-bit words, rounding up a ragged tail."""
        return (self.bytes + WORD_BYTES - 1) // WORD_BYTES

    def __add__(self, other: "DataSize") -> "DataSize":
        return DataSize(self.bytes + other.bytes)

    def __sub__(self, other: "DataSize") -> "DataSize":
        return DataSize(self.bytes - other.bytes)

    def __str__(self) -> str:
        if self.bytes >= BYTES_PER_MB:
            return f"{self.mb:.2f} MB"
        if self.bytes >= BYTES_PER_KB:
            return f"{self.kb:.1f} KB"
        return f"{self.bytes} B"


def bandwidth_mbps(size: DataSize, duration_ps: int) -> float:
    """Average bandwidth in MB/s (binary MB) for a transfer.

    This is the figure of merit of the whole paper: Table III and
    Fig. 5 are bandwidths computed exactly this way.
    """
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    return size.bytes / BYTES_PER_MB * PS_PER_S / duration_ps


def theoretical_bandwidth_mbps(frequency: Frequency,
                               bytes_per_cycle: int = WORD_BYTES) -> float:
    """Theoretical streaming bandwidth at one transfer per cycle.

    The paper's "theoretical bandwidth" line in Fig. 5:
    4 bytes/cycle x 362.5 MHz = 1.45 GB/s (decimal GB in the paper's
    prose; we report binary MB/s like Table III).
    """
    return frequency.hertz * bytes_per_cycle / BYTES_PER_MB


def us(value: float) -> int:
    """Microseconds -> picoseconds."""
    return round(value * PS_PER_US)


def ms(value: float) -> int:
    """Milliseconds -> picoseconds."""
    return round(value * PS_PER_MS)


def ns(value: float) -> int:
    """Nanoseconds -> picoseconds."""
    return round(value * PS_PER_NS)


def ps_to_us(duration_ps: int) -> float:
    return duration_ps / PS_PER_US


def ps_to_ms(duration_ps: int) -> float:
    return duration_ps / PS_PER_MS


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, used for cycle counts everywhere."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def isclose_rel(measured: float, expected: float, rel: float) -> bool:
    """Relative-tolerance comparison used by reproduction checks."""
    return math.isclose(measured, expected, rel_tol=rel)
