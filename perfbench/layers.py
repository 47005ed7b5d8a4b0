"""The traced run: in-memory spans and the per-layer metrics.

The traced run wraps the public entry point of each layer from the
benchmark's side (``SpanRecorder.wrap``) and records one span per
call: name, start, end, parent span and op id.  Spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the time its direct children cover; the benchmark is
single-threaded, so children nest strictly inside their parent and
the child time is accumulated as each child ends.

``LAYER_SPANS`` names every wrapped entry point.  Nothing under
``src/`` knows about these wrappers: they are installed for a traced
window and removed afterwards, so the untimed and timed code paths
are the program's own.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import accel, obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import now_s
from repro.obs.tracing import KernelObserver, TraceScope
from repro.sim.kernel import Simulator
from workloads import quantile


#: Span fields, in list order.
NAME, START, END, PARENT, OP, CHILD = range(6)

#: (module, owner attribute or None for a module function, attribute,
#: span name).  Several call sites of one layer share a span name.
LAYER_SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.bitstream.generator", None, "generate_bitstream",
     "bitstream.generate"),
    ("repro.sweep.cache", None, "generate_bitstream",
     "bitstream.generate"),
    ("repro.compress.xmatchpro", "XMatchProCodec", "compress",
     "compress.compress"),
    ("repro.compress.xmatchpro", "XMatchProCodec", "decompress",
     "compress.decompress"),
    ("repro.core.system", "UPaRCSystem", "__init__", "core.system_init"),
    ("repro.core.system", "UPaRCSystem", "preload", "core.preload"),
    ("repro.core.system", "UPaRCSystem", "reconfigure",
     "core.reconfigure"),
    ("repro.controllers.uparc", "UparcController", "reconfigure",
     "controllers.reconfigure"),
    ("repro.fpga.config_memory", "ConfigurationLogic", "feed_words",
     "fpga.feed_words"),
    ("repro.sim.kernel", "Simulator", "run", "sim.run"),
    ("repro.power.trace", "PowerTraceBuilder", "finalize", "power.trace"),
    ("repro.core.system", None, "energy_from_trace", "power.trace"),
    ("repro.sweep.engine", None, "execute_spec", "sweep.execute_spec"),
    ("repro.sweep.cache", "ArtifactCache", "get", "sweep.cache.get"),
    ("repro.sweep.cache", "ArtifactCache", "put", "sweep.cache.put"),
    ("repro.serve.workload", None, "generate_requests", "serve.workload"),
    ("repro.serve.service", "FleetService", "run", "serve.service"),
    # The pass is the serve pump's unit of work; wrapping it separates
    # the pump's own code from the kernel drain that calls it.
    ("repro.serve.service", "FleetService", "_pass",
     "serve.service.pass"),
    ("repro.serve.scheduler", "FairScheduler", "next_batch",
     "serve.scheduler.next_batch"),
    ("repro.serve.admission", "AdmissionController", "offer",
     "serve.admission.offer"),
    ("repro.serve.admission", "AdmissionController", "match",
     "serve.admission.match"),
    ("repro.serve.admission", "AdmissionController", "take",
     "serve.admission.take"),
    ("repro.serve.slo", None, "build_report", "serve.report"),
)

Hook = Callable[[tuple, Any], None]


class SpanRecorder:
    """Spans of one traced window, plus the wrappers that record them.

    ``before`` hooks see a call's arguments before it runs, ``after``
    hooks its arguments and result; both run outside the span, so their
    cost lands in the parent's self time, never in the layer's.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, now_s(), 0.0,
                           stack[-1] if stack else -1, self.op, 0.0])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index``, the innermost open one."""
        now = now_s()
        span = self.spans[index]
        span[END] = now
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += now - span[START]

    def wrap(self, owner: Any, attr: str, name: str,
             before: Optional[Callable[[tuple], None]] = None,
             after: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        recorder = self

        # begin()/end() inlined: the wrapper runs on every call of hot
        # serve paths, and its own cost is the trace overhead.
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, recorder.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now_s()
            try:
                result = original(*args, **kwargs)
            finally:
                now = span[END] = now_s()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += now - span[START]
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, hooks: Dict[str, Tuple[Optional[Callable],
                                             Optional[Hook]]]) -> None:
        """Wrap every entry point in ``LAYER_SPANS``.

        ``hooks`` maps a span name to its ``(before, after)`` pair.
        """
        for module_name, owner_name, attr, name in LAYER_SPANS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            before, after = hooks.get(name, (None, None))
            self.wrap(owner, attr, name, before=before, after=after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, List[float]]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        table: Dict[str, List[float]] = {}
        for span in self.spans:
            row = table.setdefault(span[NAME], [0, 0.0, 0.0])
            duration = span[END] - span[START]
            row[0] += 1
            row[1] += duration
            row[2] += duration - span[CHILD]
        return table

    def self_by_op(self) -> Dict[int, float]:
        """Sum of self times per op id."""
        sums: Dict[int, float] = {}
        for span in self.spans:
            sums[span[OP]] = sums.get(span[OP], 0.0) + (
                span[END] - span[START] - span[CHILD])
        return sums

    def rows(self) -> List[list]:
        """Spans as JSON-ready rows, times in ns from the first start."""
        if not self.spans:
            return []
        origin = self.spans[0][START]
        return [[span[NAME], round((span[START] - origin) * 1e9),
                 round((span[END] - origin) * 1e9), span[PARENT],
                 span[OP]] for span in self.spans]


#: Accel kernels the workloads exercise (``accel.<kernel>.*`` metrics);
#: the other kernels (LZ77, Huffman, RLE) serve codecs no workload runs.
ACCEL_KERNELS: Tuple[str, ...] = (
    "bitpack", "bytes_to_words", "chunk_words", "crc32c",
    "synthesize_payload", "words_to_bytes", "xmatch_decode",
    "xmatch_tokens")

#: Every per-layer metric: (name, unit).  Values are per op of the
#: reference window: times averaged over every traced op, counts taken
#: from the first traced window.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("bitstream.generate.calls", "count/op"),
    ("bitstream.generate.ms", "ms/op"),
    ("compress.compress.ms", "ms/op"),
    ("compress.compress.bytes", "B/op"),
    ("compress.decompress.ms", "ms/op"),
    ("compress.decompress.bytes", "B/op"),
) + tuple(
    (f"accel.{kernel}.{field}", unit)
    for kernel in ACCEL_KERNELS
    for field, unit in (("calls", "count/op"), ("bytes", "B/op"))
) + (
    ("core.system_init.ms", "ms/op"),
    ("core.preload.ms", "ms/op"),
    ("core.reconfigure.ms", "ms/op"),
    ("controllers.reconfigure.ms", "ms/op"),
    ("core.sim_preload_us", "us"),
    ("core.sim_control_overhead_us", "us"),
    ("core.sim_transfer_us", "us"),
    ("fpga.feed_words.calls", "count/op"),
    ("fpga.feed_words.ms", "ms/op"),
    ("fpga.frames_written", "count/op"),
    ("fpga.words_written", "count/op"),
    ("sim.run.calls", "count/op"),
    ("sim.run.self_ms", "ms/op"),
    ("sim.events", "count/op"),
    ("sim.host_ns_per_event", "ns"),
    ("power.trace.ms", "ms/op"),
    ("sweep.execute_spec.ms", "ms/op"),
    ("sweep.cache.get.ms", "ms/op"),
    ("sweep.cache.put.ms", "ms/op"),
    ("sweep.cache.hits", "count/op"),
    ("sweep.cache.misses", "count/op"),
    ("sweep.cache.bytes_read", "B/op"),
    ("sweep.cache.bytes_written", "B/op"),
    ("sweep.cache.hit_ratio", "ratio"),
    ("serve.workload.ms", "ms/op"),
    ("serve.service.self_ms", "ms/op"),
    ("serve.scheduler.next_batch.calls", "count/op"),
    ("serve.scheduler.next_batch.ms", "ms/op"),
    ("serve.report.ms", "ms/op"),
    ("serve.passes", "count/op"),
    ("serve.dispatch.batches", "count/op"),
) + tuple(
    (f"serve.admission.{step}.{field}", unit)
    for step in ("offer", "match", "take")
    for field, unit in (("calls", "count/op"), ("ms", "ms/op"))
) + (
    ("serve.admission.depth_at_match_p50", "count"),
    ("serve.admission.depth_at_match_p90", "count"),
    ("trace.overhead_pct", "%"),
)


class TracedWindow:
    """One traced execution of the reference window."""

    def __init__(self, records, walls, recorder: SpanRecorder,
                 registry: MetricsRegistry, extra: Dict[str, Any],
                 probe: Dict[str, list], keep_rows: bool) -> None:
        self.records = records
        self.walls = walls
        self.wall_s = sum(walls)
        self.totals = recorder.totals()
        self.extra = extra
        self.probe = probe
        self.counters = registry.snapshot()["counters"]
        cache = {"hits": 0, "misses": 0, "bytes_read": 0,
                 "bytes_written": 0}
        for record in records:
            stats = record.get("stats") if record else None
            if stats is not None:
                for key in cache:
                    cache[key] += getattr(stats, key)
        self.cache = cache
        #: Everything that must repeat exactly across executions.
        self.counts = {
            "counters": self.counters,
            "span_calls": {name: row[0] for name, row
                           in sorted(self.totals.items())},
            "layer": dict(sorted(extra.items())),
            "cache": cache,
            "depth_at_match": hashlib.sha256(json.dumps(
                probe["depth_at_match"], sort_keys=True).encode()).hexdigest(),
        }
        by_op = recorder.self_by_op()
        self._self_error = max(
            (abs(by_op.get(offset, 0.0) - wall) / wall
             for offset, wall in enumerate(walls) if wall > 0),
            default=0.0)
        self.rows = recorder.rows() if keep_rows else []

    def self_sum_error(self) -> float:
        """Worst relative gap between an op's self-time sum and its wall."""
        return self._self_error


def observed_simulator(registry: MetricsRegistry) -> Simulator:
    """A kernel that counts its events into ``registry``."""
    sim = Simulator()
    sim.observer = KernelObserver(TraceScope(sim), registry)
    return sim


def trace_window(workload, tally, run_block,
                 keep_rows: bool = False) -> TracedWindow:
    """Run the reference window with every layer wrapped."""
    registry = MetricsRegistry()
    recorder = SpanRecorder()
    extra: Dict[str, Any] = {
        "compress.compress.bytes": 0, "compress.decompress.bytes": 0,
        "reconfigurations": 0, "sim_preload_ps": 0,
        "sim_control_overhead_ps": 0, "sim_transfer_ps": 0}
    probe: Dict[str, list] = {"depth_at_match": []}

    def add_bytes(key):
        def hook(args):
            extra[key] += len(args[1])
        return hook

    def on_reconfigure(args, result):
        extra["reconfigurations"] += 1
        extra["sim_preload_ps"] += result.preload_ps
        extra["sim_control_overhead_ps"] += result.control_overhead_ps
        extra["sim_transfer_ps"] += result.transfer_ps

    hooks = {
        "compress.compress": (add_bytes("compress.compress.bytes"), None),
        "compress.decompress": (add_bytes("compress.decompress.bytes"),
                                None),
        "serve.admission.match": (
            lambda args: probe["depth_at_match"].append(args[0].depth),
            None),
        "core.reconfigure": (None, on_reconfigure),
    }
    roots: List[int] = []

    def begin_op(index: int) -> None:
        recorder.op = index
        roots.append(recorder.begin("op"))

    def end_op() -> None:
        recorder.end(roots.pop())

    if hasattr(workload, "sim_factory"):
        workload.sim_factory = lambda: observed_simulator(registry)
    obs.install(registry=registry)
    recorder.install(hooks)
    try:
        records, walls = run_block(workload, 0, tally, before_op=begin_op,
                                   after_op=end_op)
    finally:
        recorder.uninstall()
        obs.install()
        if hasattr(workload, "sim_factory"):
            workload.sim_factory = None
    return TracedWindow(records, walls, recorder, registry, extra, probe,
                        keep_rows)


def per_layer_metrics(workload, windows: List[TracedWindow],
                      overhead: float) -> Dict[str, Dict[str, Any]]:
    """Every ``PER_LAYER`` metric for the traced windows of a run.

    Times are averaged over every traced op; counts come from the first
    window (the run checks that every window repeats them exactly).
    """
    first = windows[0]
    block = workload.BLOCK
    ops = block * len(windows)
    backend = accel.backend_name()

    def total(name: str, column: int) -> float:
        return sum(w.totals.get(name, (0, 0.0, 0.0))[column]
                   for w in windows)

    def ms(name: str) -> float:
        return total(name, 1) * 1e3 / ops

    def self_ms(name: str) -> float:
        return total(name, 2) * 1e3 / ops

    def calls(name: str) -> float:
        return first.totals.get(name, (0, 0.0, 0.0))[0] / block

    def counter(name: str) -> float:
        return first.counters.get(name, 0) / block

    extra = first.extra
    reconfigurations = extra["reconfigurations"]

    def sim_us(key: str) -> float:
        return (extra[key] / reconfigurations / 1e6
                if reconfigurations else 0.0)

    events = first.counters.get("kernel.events_dispatched", 0)
    cache = first.cache
    lookups = cache["hits"] + cache["misses"]
    depths = first.probe["depth_at_match"]
    values: Dict[str, float] = {
        "bitstream.generate.calls": calls("bitstream.generate"),
        "bitstream.generate.ms": ms("bitstream.generate"),
        "compress.compress.ms": ms("compress.compress"),
        "compress.compress.bytes": extra["compress.compress.bytes"] / block,
        "compress.decompress.ms": ms("compress.decompress"),
        "compress.decompress.bytes":
            extra["compress.decompress.bytes"] / block,
        "core.system_init.ms": ms("core.system_init"),
        "core.preload.ms": ms("core.preload"),
        "core.reconfigure.ms": ms("core.reconfigure"),
        "controllers.reconfigure.ms": ms("controllers.reconfigure"),
        "core.sim_preload_us": sim_us("sim_preload_ps"),
        "core.sim_control_overhead_us": sim_us("sim_control_overhead_ps"),
        "core.sim_transfer_us": sim_us("sim_transfer_ps"),
        "fpga.feed_words.calls": calls("fpga.feed_words"),
        "fpga.feed_words.ms": ms("fpga.feed_words"),
        "fpga.frames_written": counter("icap.frames_written"),
        "fpga.words_written": counter("icap.words_written"),
        "sim.run.calls": calls("sim.run"),
        "sim.run.self_ms": self_ms("sim.run"),
        "sim.events": events / block,
        "sim.host_ns_per_event": (total("sim.run", 2) * 1e9
                                  / (events * len(windows))
                                  if events else 0.0),
        "power.trace.ms": ms("power.trace"),
        "sweep.execute_spec.ms": ms("sweep.execute_spec"),
        "sweep.cache.get.ms": ms("sweep.cache.get"),
        "sweep.cache.put.ms": ms("sweep.cache.put"),
        "sweep.cache.hits": cache["hits"] / block,
        "sweep.cache.misses": cache["misses"] / block,
        "sweep.cache.bytes_read": cache["bytes_read"] / block,
        "sweep.cache.bytes_written": cache["bytes_written"] / block,
        "sweep.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.workload.ms": ms("serve.workload"),
        "serve.service.self_ms": (self_ms("serve.service")
                                  + self_ms("serve.service.pass")),
        "serve.scheduler.next_batch.calls":
            calls("serve.scheduler.next_batch"),
        "serve.scheduler.next_batch.ms": ms("serve.scheduler.next_batch"),
        "serve.report.ms": ms("serve.report"),
        "serve.passes": counter("serve.passes"),
        "serve.dispatch.batches": counter("serve.dispatch.batches"),
        "serve.admission.depth_at_match_p50": quantile(depths, 0.5),
        "serve.admission.depth_at_match_p90": quantile(depths, 0.9),
        "trace.overhead_pct": overhead * 100.0,
    }
    for step in ("offer", "match", "take"):
        name = f"serve.admission.{step}"
        values[name + ".calls"] = calls(name)
        values[name + ".ms"] = ms(name)
    for kernel in ACCEL_KERNELS:
        prefix = f"accel.{backend}.{kernel}"
        values[f"accel.{kernel}.calls"] = counter(prefix + ".calls")
        values[f"accel.{kernel}.bytes"] = counter(prefix + ".bytes")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
