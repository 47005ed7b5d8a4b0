"""The benchmark's four workloads.

Every workload is a closed loop: one caller runs ops back to back on
one thread, and op ``i`` uses seed ``seed + i``.  Ops are grouped in
blocks of ``BLOCK`` ops; block 0 is the reference window.  The
simulated-time metrics, the regime guards and the traced run all use
that window, so they are a function of the seed alone, however many
ops a timed run gets through.

A workload exposes:

* ``setup()``          -- one-time work a user pays before the first op
                          (memos, tables, one discarded warm-up op);
* ``begin_block(b)`` / ``end_block()`` -- untimed work around a block;
* ``run_op(i)``        -- one op; returns the record the checks need;
* ``check(record)``    -- raises ``OpFailed`` when the output is wrong;
* ``items(record)``    -- items the op completed;
* ``sim(records)``     -- simulated-time metrics of a window;
* ``digest(records)``  -- one string that pins every simulated result
                          of a window;
* ``guards(records, probe)`` -- regime guards: name -> (value, ok).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.bitstream import generator
from repro.bitstream.device import VIRTEX5_SX50T
from repro.bitstream.frames import frame_layout
from repro.core.system import UPaRCSystem
from repro.core.urec import OperationMode
from repro.results import stream_crc
from repro.units import DataSize, Frequency

#: Table III: UPaRC_ii bandwidth at 255 MHz, MB/s.
PAPER_MODE_II_MBPS = 1008.0
#: Fig. 5 anchors at 362.5 MHz: (size KB, efficiency %).
PAPER_FIG5_ANCHORS = {"small": (6.5, 78.8), "large": (247.0, 99.0)}


class OpFailed(Exception):
    """An op's output failed the benchmark's correctness check."""


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def quantile(values: List[float], share: float) -> float:
    """Nearest-rank quantile of ``values`` (``share`` in [0, 1]); 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class Workload:
    """Defaults for the optional parts of the workload interface."""

    def begin_block(self, block: int) -> None:
        pass

    def end_block(self) -> None:
        pass

    def guards(self, records, probe) -> Dict[str, Tuple[Any, bool]]:
        return {}

    def close(self) -> None:
        pass


class ModeII(Workload):
    """The paper's campaign scenario, one reconfiguration per op.

    An op generates a fresh 216.5 KB payload, builds a ``UPaRCSystem``,
    retunes CLK_2 to 255 MHz, stages the payload COMPRESSED (X-MatchPRO)
    and reconfigures with the power trace on.
    """

    name = "mode_ii"
    item = "reconfiguration"
    BLOCK = 8
    PAYLOAD_KB = 216.5
    FREQUENCY_MHZ = 255.0

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        frame_layout(VIRTEX5_SX50T)
        self.check(self.run_op(-1))

    def run_op(self, index: int) -> Dict[str, Any]:
        bitstream = generator.generate_bitstream(
            size=DataSize.from_kb(self.PAYLOAD_KB), seed=self.seed + index)
        system = UPaRCSystem()
        system.set_frequency(Frequency.from_mhz(self.FREQUENCY_MHZ))
        system.preload(bitstream, OperationMode.COMPRESSED)
        result = system.reconfigure(collect_power=True)
        return {"raw": bitstream.raw_bytes, "result": result}

    def check(self, record: Dict[str, Any]) -> None:
        result = record["result"]
        if not result.verified or result.mode != "compressed" \
                or result.payload_crc != stream_crc(record["raw"]):
            raise OpFailed(f"mode_ii: ICAP CRC {result.payload_crc:#010x} "
                           f"does not match the payload")

    def items(self, record: Dict[str, Any]) -> int:
        return 1

    def sim(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        bandwidth = statistics.median(
            r["result"].bandwidth_decimal_mbps for r in records)
        return {
            "sim_error_pct": {
                "value": abs(bandwidth - PAPER_MODE_II_MBPS)
                / PAPER_MODE_II_MBPS * 100.0,
                "unit": "%", "samples": len(records),
                "reference": "Table III UPaRC_ii 1008 MB/s",
                "measured_mbps": bandwidth},
        }

    def digest(self, records: List[Dict[str, Any]]) -> str:
        return _sha([[r["result"].preload_ps, r["result"].control_overhead_ps,
                      r["result"].transfer_ps, r["result"].stored_size.bytes,
                      r["result"].payload_crc, r["result"].energy.energy_uj]
                     for r in records])


class Fig5Sweep(Workload):
    """The Fig. 5 surface as ``repro sweep fig5`` runs it, a cell per op.

    A block is one full 7 x 7 pass of UPaRC_i in raw mode through
    ``repro.sweep.engine.execute_spec``.  Pass ``p`` uses payload seed
    ``seed + p`` for all seven sizes and starts from an empty artifact
    cache, so each pass is 7 bitstream misses and 42 hits.
    """

    name = "fig5_sweep"
    item = "cell"

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.sweep.spec import FIG5_GRID
        self.seed = seed
        self.work_dir = work_dir
        self.cells = FIG5_GRID.expand()
        self.BLOCK = len(self.cells)
        self._cache_root: Optional[str] = None

    def _spec(self, index: int):
        from dataclasses import replace
        from repro.sweep.spec import PayloadSpec
        cell = self.cells[index % self.BLOCK]
        pass_index = index // self.BLOCK
        return replace(cell, payload=PayloadSpec(
            size_kb=cell.payload.size_kb, seed=self.seed + pass_index))

    def begin_block(self, block: int) -> None:
        """Start pass ``block`` from a fresh, empty cache directory."""
        self.end_block()
        os.makedirs(self.work_dir, exist_ok=True)
        self._cache_root = tempfile.mkdtemp(prefix="fig5-cache-",
                                            dir=self.work_dir)

    def end_block(self) -> None:
        if self._cache_root is not None:
            shutil.rmtree(self._cache_root)
            self._cache_root = None

    def setup(self) -> None:
        frame_layout(VIRTEX5_SX50T)
        self.begin_block(-1)
        try:
            self.check(self.run_op(-self.BLOCK))
        finally:
            self.end_block()

    def run_op(self, index: int) -> Dict[str, Any]:
        from repro.sweep import engine
        result, stats = engine.execute_spec(self._spec(index),
                                            cache_root=self._cache_root)
        return {"result": result, "stats": stats}

    def check(self, record: Dict[str, Any]) -> None:
        result = record["result"]
        if result.verified is not True:
            raise OpFailed(f"fig5_sweep: {result.key} not verified")

    def items(self, record: Dict[str, Any]) -> int:
        return 1

    def sim(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        from repro.analysis.bandwidth import anchor_points
        from repro.sweep.engine import to_bandwidth_points
        anchors = anchor_points(to_bandwidth_points(
            r["result"] for r in records))
        errors = [abs(anchors[name] - paper) / paper * 100.0
                  for name, (_, paper) in sorted(PAPER_FIG5_ANCHORS.items())]
        return {
            "sim_error_pct": {
                "value": statistics.fmean(errors), "unit": "%",
                "samples": len(errors),
                "reference": "Fig. 5 anchors 78.8 % (6.5 KB) and 99 % "
                             "(247 KB) at 362.5 MHz",
                "measured_efficiency_pct": anchors},
        }

    def digest(self, records: List[Dict[str, Any]]) -> str:
        return _sha(sorted((r["result"].to_record() for r in records),
                           key=lambda record: record["key"]))

    def guards(self, records, probe) -> Dict[str, Tuple[Any, bool]]:
        hits = sum(r["stats"].hits for r in records)
        misses = sum(r["stats"].misses for r in records)
        # Every cell misses its run record (the cache starts empty), so
        # bitstream misses are the misses beyond one per cell.
        bitstream_misses = misses - len(records)
        sizes = len({cell.payload.size_kb for cell in self.cells})
        repo_cache = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), ".repro-cache")
        return {
            "bitstream_misses_per_pass": (bitstream_misses,
                                          bitstream_misses == sizes),
            "bitstream_hits_per_pass": (hits,
                                        hits == len(records) - sizes),
            "cache_outside_program_tree": (
                os.path.relpath(self.work_dir, os.path.dirname(repo_cache)),
                not os.path.exists(repo_cache)),
        }

    def close(self) -> None:
        self.end_block()


class Serve(Workload):
    """One ``FleetService.run`` of a 10k-request stream per op.

    Default ``ServeSpec`` (4 boards, UPaRC_i at 362.5 MHz, Poisson
    arrivals) at the workload's load; op ``i`` draws its request stream
    with spec seed ``seed + i``.
    """

    item = "request"
    BLOCK = 3

    def __init__(self, name: str, load: float, seed: int,
                 work_dir: str) -> None:
        self.name = name
        self.load = load
        self.seed = seed
        self.sim_factory = None  # the traced run attaches a kernel observer

    def _spec(self, index: int):
        from repro.serve.spec import ServeSpec
        return ServeSpec(load=self.load, seed=self.seed + index)

    def setup(self) -> None:
        from repro.serve.fleet import ServiceTimeTable
        ServiceTimeTable(self._spec(0))
        self.check(self.run_op(-1))

    def run_op(self, index: int) -> Dict[str, Any]:
        from repro.serve import slo, workload
        from repro.serve.fleet import ServiceTimeTable
        from repro.serve.service import FleetService
        spec = self._spec(index)
        table = ServiceTimeTable(spec)
        requests = workload.generate_requests(spec,
                                              table.resolved_rate_rps())
        sim = self.sim_factory() if self.sim_factory else None
        outcome = FleetService(spec, table=table, sim=sim).run(requests)
        report = slo.build_report(outcome)
        return {"spec": spec, "offered": len(requests), "report": report,
                "outcome_counts": (len(outcome.completions),
                                   len(outcome.sheds))}

    def check(self, record: Dict[str, Any]) -> None:
        report = record["report"]
        completed, shed = record["outcome_counts"]
        if not (record["offered"] == record["spec"].requests
                == report.requests == completed + shed
                == report.completed + report.shed):
            raise OpFailed(f"{self.name}: completed {completed} + shed "
                           f"{shed} != offered {record['offered']}")

    def items(self, record: Dict[str, Any]) -> int:
        return record["report"].completed

    def sim(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        reports = [r["report"] for r in records]
        miss = [100.0 * (rep.shed + rep.deadline_missed) / rep.requests
                for rep in reports]
        samples = len(reports)
        return {
            "sim_p99_us": {"value": statistics.median(
                rep.latency_us["p99"] for rep in reports),
                "unit": "us", "samples": samples},
            "sim_goodput_rps": {"value": statistics.median(
                rep.goodput_rps for rep in reports),
                "unit": "1/s", "samples": samples},
            "sim_slo_miss_pct": {"value": statistics.median(miss),
                                 "unit": "%", "samples": samples},
            "validated": False,
        }

    def digest(self, records: List[Dict[str, Any]]) -> str:
        return _sha([r["report"].digest for r in records])

    def guards(self, records, probe) -> Dict[str, Tuple[Any, bool]]:
        shed = sum(r["report"].shed for r in records)
        depths = probe["depth_at_match"]
        bound = records[0]["spec"].queue_limit
        p50 = quantile(depths, 0.5)
        p90 = quantile(depths, 0.9)
        if self.load > 1:
            return {"depth_at_match_p50": (p50, p50 >= bound / 2),
                    "shed": (shed, shed > 0)}
        return {"depth_at_match_p90": (p90, p90 <= 2),
                "shed": (shed, shed == 0)}


WORKLOADS = {
    "mode_ii": lambda seed, work: ModeII(seed, work),
    "fig5_sweep": lambda seed, work: Fig5Sweep(seed, work),
    "serve_nominal": lambda seed, work: Serve("serve_nominal", 0.8, seed,
                                              work),
    "serve_overload": lambda seed, work: Serve("serve_overload", 8.0, seed,
                                               work),
}
