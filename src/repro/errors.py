"""Exception hierarchy for the UPaRC reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one base class to handle any library failure.  The
subclasses mirror the major subsystems: simulation kernel, bitstream
handling, compression codecs, hardware component models, and controller
protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class UnitError(ReproError, ValueError):
    """A physical quantity is non-finite or outside its legal range.

    Also a :class:`ValueError`, so callers that validated unit
    arithmetic by catching ``ValueError`` keep working.
    """


class AccelError(ReproError):
    """A datapath backend could not be selected or loaded."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    was already finalized, or a process that violates kernel invariants.
    """


class ClockError(SimulationError):
    """A clock domain was configured with an invalid frequency or phase."""


class BitstreamError(ReproError):
    """A bitstream could not be generated, parsed or validated."""


class BitstreamFormatError(BitstreamError):
    """A byte stream does not follow the Xilinx bitstream format."""


class DeviceMismatchError(BitstreamError):
    """A bitstream targets a different FPGA device than the one loaded."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class CorruptStreamError(CompressionError):
    """A compressed stream is malformed or truncated."""


class HardwareModelError(ReproError):
    """A hardware component model was driven outside its legal envelope."""


class FrequencyError(HardwareModelError):
    """A component was clocked above its maximum rated frequency."""


class CapacityError(HardwareModelError):
    """A memory (BRAM, CF, DDR2) does not have room for the payload."""


class DrpProtocolError(HardwareModelError):
    """The DCM Dynamic Reconfiguration Port protocol was violated."""


class ControllerError(ReproError):
    """A reconfiguration controller was misused (protocol or mode error)."""


class ReconfigurationFailed(ControllerError):
    """A reconfiguration run did not complete successfully."""


class PolicyError(ReproError):
    """No operating point satisfies the requested constraints."""


class CalibrationError(ReproError):
    """A power-model calibration table is malformed or out of range."""


class FleetError(ControllerError):
    """A fleet board or its bitstream library was misused."""


class ServeError(ReproError):
    """A serve spec, workload, or scheduler policy is invalid."""
