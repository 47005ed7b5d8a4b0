"""``repro.sanitize`` — dynamic race & determinism sanitizers.

TSan-style runtime checkers for the event kernel.  The model is a
single-threaded event loop, so its one race class is same-instant
order dependence; these checkers are the repository's one oracle for
it, and they observe it on real executions:

* :class:`RaceSanitizer` (S901/S902) — happens-before race detection
  over attribute accesses of controller/FPGA/core state
  (:mod:`repro.sanitize.race`).
* :class:`DeterminismSanitizer` (S903) — seeded perturbation of
  same-instant event order with event-stream/output digest diffing
  (:mod:`repro.sanitize.determinism`).  It also catches what S901/S902
  cannot see: order-dependent in-place container mutation.

Quick start::

    from repro.sanitize import sanitized

    with sanitized() as sanitizer:
        system = UPaRCSystem()          # auto-instrumented
        system.run(bitstream, frequency)
    for finding in sanitizer.findings:
        print(finding.describe())

CLI: ``python -m repro sanitize [paths...]`` runs scripts under both
sanitizers (``--sarif FILE`` exports the findings); ``--sanitize`` on
the table/figure and sweep commands wraps those runs the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.sanitize.determinism import (
    DeterminismSanitizer,
    DivergenceFinding,
    RunRecord,
    StreamRecorder,
)
from repro.sanitize.hb import (
    HBTracker,
    Task,
    TrackerListener,
    VectorClock,
    happens_before,
)
from repro.sanitize.race import (
    ORDER_DIVERGENCE,
    READ_WRITE_RACE,
    RULE_TITLES,
    RaceSanitizer,
    SanitizerFinding,
    WRITE_WRITE_RACE,
)

__all__ = [
    # happens-before core
    "HBTracker", "Task", "TrackerListener", "VectorClock",
    "happens_before",
    # race sanitizer
    "RaceSanitizer", "SanitizerFinding", "WRITE_WRITE_RACE",
    "READ_WRITE_RACE", "ORDER_DIVERGENCE", "RULE_TITLES", "sanitized",
    # determinism sanitizer
    "DeterminismSanitizer", "DivergenceFinding", "RunRecord",
    "StreamRecorder",
]


@contextmanager
def sanitized(auto_instrument: bool = True,
              track_reads: bool = True,
              justified: Tuple[str, ...] = (),
              ) -> Iterator[RaceSanitizer]:
    """Race-sanitize everything simulated inside the block.

    Simulators constructed inside the block are tracked via the
    kernel construction hook; model classes are auto-instrumented
    unless ``auto_instrument=False`` (then only
    :meth:`RaceSanitizer.watch`-ed objects are checked).  Findings
    are on the yielded sanitizer after the block exits.
    """
    sanitizer = RaceSanitizer(auto_instrument=auto_instrument,
                              track_reads=track_reads,
                              justified=justified)
    sanitizer.open()
    try:
        yield sanitizer
    finally:
        sanitizer.close()
