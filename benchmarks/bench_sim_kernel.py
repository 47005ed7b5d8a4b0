"""Library performance — discrete-event kernel and codec throughput.

Not a paper figure: these track the *reproduction's* own performance
(events/second through the kernel, a full UPaRC run end to end) so
regressions in the simulator show up in CI like any other bench.
"""

from __future__ import annotations

from repro.bitstream.generator import generate_bitstream
from repro.core.system import UPaRCSystem
from repro.sim import Delay, Process, Simulator
from repro.units import DataSize, Frequency

EVENTS = 20_000


def _event_storm() -> int:
    """Slot-free ``call_at`` scheduling: the kernel's uncancellable path."""
    sim = Simulator()
    fired = 0

    def bump() -> None:
        nonlocal fired
        fired += 1

    for index in range(EVENTS):
        sim.call_at(index * 10, bump)
    sim.run()
    return fired


def _handle_storm() -> int:
    """Per-event ScheduledEvent handles (the cancellable slow path)."""
    sim = Simulator()
    fired = 0

    def bump() -> None:
        nonlocal fired
        fired += 1

    for index in range(EVENTS):
        sim.at(index * 10, bump)
    sim.run()
    return fired


def test_kernel_event_throughput(benchmark):
    fired = benchmark(_event_storm)
    assert fired == EVENTS


def test_kernel_handle_throughput(benchmark):
    fired = benchmark(_handle_storm)
    assert fired == EVENTS


def _process_chain() -> int:
    sim = Simulator()
    hops = 0

    def hopper():
        nonlocal hops
        for _ in range(5_000):
            hops += 1
            yield Delay(100)

    Process(sim, hopper())
    sim.run()
    return hops


def test_process_switch_throughput(benchmark):
    hops = benchmark(_process_chain)
    assert hops == 5_000


def test_full_uparc_run(benchmark, paper_bitstream):
    """Wall-clock of one complete preload + reconfigure + verify."""

    def run():
        system = UPaRCSystem(decompressor=None)
        return system.run(paper_bitstream,
                          frequency=Frequency.from_mhz(362.5))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.verified


def test_bitstream_generation(benchmark):
    bitstream = benchmark.pedantic(
        generate_bitstream,
        kwargs={"size": DataSize.from_kb(64)},
        rounds=3, iterations=1)
    assert bitstream.size.kb > 60
