"""Timed and traced runs of one workload (see README.md).

``run.py`` checks the checkout and puts its ``src/`` on the import
path before importing this module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
from repro import accel
from repro.errors import ReproError
from repro.obs.profiling import now_s
from repro.serve.admission import AdmissionController
from workloads import WORKLOADS, OpFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN = Path(__file__).resolve().parent / "run.py"
#: Scratch space for caches and span dumps, inside the checkout.
WORK_DIR = ROOT / ".bench_build" / "perfbench"
#: Fresh processes whose set-up time is measured per timed run.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
READY = "perfbench-ready"
#: A percentile is printed only with at least this many samples beyond.
MIN_BEYOND_TAIL = 10
#: Host times are reported at a reference host speed: the speed at
#: which one run of ``yardstick_s`` takes this long (see README.md).
YARDSTICK_REFERENCE_S = 0.0025
#: Yardstick samples taken on each side of a set-up probe.
YARDSTICK_SAMPLES = 5


# -- metadata ------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's source files (path + content)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def metadata(seed: int, backend: str) -> Dict[str, Any]:
    return {
        "accel.backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# -- host speed -------------------------------------------------------------


def yardstick_s() -> float:
    """Seconds one fixed pure-Python loop takes: the host-speed yardstick.

    The shared host's speed drifts by up to 1.8x between runs (this
    loop took 2.0 ms in some minutes and 3.6 ms in others).  Timing
    this loop between ops and scaling each op by it takes that drift
    out of the reported times.  The loop uses only the interpreter, so
    no change to the program moves it.
    """
    start = now_s()
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return now_s() - start


def pin_to_one_cpu() -> None:
    """Keep this process and its set-up probes on one CPU.

    The yardstick then times the same CPU the ops and probes run on;
    unpinned, a probe could land on the other CPU of a differently
    loaded pair.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time scaled to the reference host speed."""
    return seconds * YARDSTICK_REFERENCE_S / ((before + after) / 2.0)


# -- set-up ---------------------------------------------------------------


def setup_workload(name: str, seed: int):
    """Resolve the backend and set the workload up."""
    backend = accel.backend_name()
    workload = WORKLOADS[name](seed, str(WORK_DIR))
    workload.setup()
    return workload, backend


def setup_probe(args: argparse.Namespace) -> None:
    workload, _ = setup_workload(args.workload, args.seed)
    workload.close()
    print(READY, flush=True)


def measure_setup(args: argparse.Namespace) -> Tuple[List[float],
                                                    List[float]]:
    """Set-up seconds of fresh processes, from spawn to first-op ready.

    Returns the raw samples and the samples at reference host speed.
    """
    samples = []
    scaled = []
    command = [sys.executable, str(RUN),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(
            yardstick_s() for _ in range(YARDSTICK_SAMPLES))
        start = now_s()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True, cwd=str(ROOT)) as child:
            line = child.stdout.readline()
            ready = now_s()
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = statistics.median(
            yardstick_s() for _ in range(YARDSTICK_SAMPLES))
        samples.append(ready - start)
        scaled.append(at_reference_speed(ready - start, before, after))
    return samples, scaled


# -- op loops -------------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_block(workload, block: int, tally: Tally,
              before_op: Optional[Callable[[int], None]] = None,
              after_op: Optional[Callable[[], None]] = None,
              yardsticks: Optional[List[float]] = None,
              ) -> Tuple[List[Any], List[float]]:
    """Run one block; returns its op records and per-op host seconds.

    ``before_op``/``after_op`` run inside the timed region, directly
    around the op (the traced run opens and closes the op span there).
    Checks run after the timer stops.  A raised ``ReproError`` or a
    failed check counts as a failed op; its record is ``None``.  With
    ``yardsticks``, one ``yardstick_s`` sample is appended after each
    op, outside the timed region.
    """
    records: List[Any] = []
    walls: List[float] = []
    workload.begin_block(block)
    try:
        for offset in range(workload.BLOCK):
            index = block * workload.BLOCK + offset
            tally.attempted += 1
            record = None
            error = None
            start = now_s()
            if before_op is not None:
                before_op(index)
            try:
                record = workload.run_op(index)
            except ReproError as exc:
                error = f"op {index}: {type(exc).__name__}: {exc}"
            finally:
                if after_op is not None:
                    after_op()
            walls.append(now_s() - start)
            if record is not None:
                try:
                    workload.check(record)
                except OpFailed as exc:
                    error = f"op {index}: {exc}"
                    record = None
            if error is not None:
                tally.fail(error)
            records.append(record)
            if yardsticks is not None:
                yardsticks.append(yardstick_s())
    finally:
        workload.end_block()
    return records, walls


def window_summary(workload, records: List[Any]) -> Dict[str, Any]:
    """Simulated metrics and digest of a complete reference window."""
    if any(record is None for record in records):
        return {"sim": {}, "digest": None}
    return {"sim": workload.sim(records), "digest": workload.digest(records)}


def depth_probe(probe: Dict[str, list]) -> layers.SpanRecorder:
    """A recorder that only samples queue depth at ``match`` (guards)."""
    recorder = layers.SpanRecorder()
    probe["depth_at_match"] = []
    recorder.wrap(AdmissionController, "match", "serve.admission.match",
                  before=lambda args: probe["depth_at_match"].append(
                      args[0].depth))
    return recorder


def check_guards(workload, records, probe) -> Tuple[Dict[str, Any], bool]:
    guards = workload.guards(records, probe)
    report = {name: {"value": value, "ok": ok}
              for name, (value, ok) in guards.items()}
    return report, all(ok for _, ok in guards.values())


# -- timed run --------------------------------------------------------------


def timed_run(args: argparse.Namespace) -> Dict[str, Any]:
    setup_raw, setup_scaled = measure_setup(args)
    workload, backend = setup_workload(args.workload, args.seed)
    tally = Tally()
    op_walls: List[float] = []
    items = 0
    reference: Optional[List[Any]] = None
    yardsticks = [yardstick_s()]
    start = now_s()
    block = 0
    while block == 0 or now_s() - start < args.seconds:
        records, walls = run_block(workload, block, tally,
                                   yardsticks=yardsticks)
        if reference is None:
            reference = records
        op_walls.extend(walls)
        items += sum(workload.items(r) for r in records if r is not None)
        block += 1
    loop_s = now_s() - start

    # Re-run the reference window untimed with the guard probes on: its
    # simulated results must repeat exactly, and the regime must hold.
    window = window_summary(workload, reference)
    probe: Dict[str, list] = {}
    recorder = depth_probe(probe)
    try:
        again, _ = run_block(workload, 0, tally)
    finally:
        recorder.uninstall()
    rerun = window_summary(workload, again)
    guards, guards_ok = (check_guards(workload, again, probe)
                         if rerun["digest"] else ({}, False))
    workload.close()
    repeatable = window["digest"] is not None \
        and window["digest"] == rerun["digest"]

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [at_reference_speed(wall, before, after) for wall, before, after
              in zip(op_walls, yardsticks, yardsticks[1:])]
    ordered = sorted(scaled)
    tail_rank = max(1, -(-len(ordered) * 9 // 10))
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s",
                    "samples": len(setup_scaled)},
        "items_per_s": {"value": items / sum(scaled), "unit": "1/s",
                        "samples": len(scaled)},
        "op_ms_p50": {"value": statistics.median(scaled) * 1e3,
                      "unit": "ms", "samples": len(scaled)},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1},
    }
    extra = {
        "op_ms_p90": {"value": ordered[tail_rank - 1] * 1e3, "unit": "ms",
                      "samples": len(ordered),
                      "beyond": len(ordered) - tail_rank},
        "raw": {"setup_s": statistics.median(setup_raw),
                "items_per_s": items / sum(op_walls),
                "op_ms_p50": statistics.median(op_walls) * 1e3},
        "yardstick_ms_p50": statistics.median(yardsticks) * 1e3,
        "loop_s": loop_s,
        "items": items,
        "item": workload.item,
    }
    return {
        "tally": tally, "backend": backend, "metrics": metrics,
        "extra": extra, "sim": window["sim"], "digest": window["digest"],
        "guards": guards,
        "correct": tally.failed == 0 and repeatable and guards_ok,
        "checks": {"window_repeats": repeatable, "guards": guards_ok},
    }


# -- traced run -------------------------------------------------------------


def traced_run(args: argparse.Namespace) -> Dict[str, Any]:
    workload, backend = setup_workload(args.workload, args.seed)
    tally = Tally()
    plain_walls: List[float] = []
    traced: List[layers.TracedWindow] = []
    summaries: List[Dict[str, Any]] = []
    start = now_s()
    while (len(traced) < 2 or now_s() - start < args.seconds):
        records, walls = run_block(workload, 0, tally)
        plain_walls.append(sum(walls))
        summaries.append(window_summary(workload, records))

        window = layers.trace_window(workload, tally, run_block,
                                     keep_rows=not traced)
        traced.append(window)
        summaries.append(window_summary(workload, window.records))
    workload.close()

    digests = [summary["digest"] for summary in summaries]

    first = traced[0]
    repeatable = digests[0] is not None and len(set(digests)) == 1
    counts_repeat = all(window.counts == first.counts for window in traced)
    guards, guards_ok = (check_guards(workload, first.records, first.probe)
                         if repeatable else ({}, False))
    overhead = (statistics.median(w.wall_s for w in traced)
                / statistics.median(plain_walls) - 1.0)
    self_sum_ok = all(window.self_sum_error() <= max(abs(overhead), 0.01)
                      for window in traced)
    per_layer = layers.per_layer_metrics(workload, traced, overhead)

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    # One file per workload, overwritten by each traced run: a serve
    # window alone is ~200k spans.
    spans_path = WORK_DIR / f"spans-{args.workload}.json"
    with open(spans_path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "spans": first.rows}, handle, separators=(",", ":"))
    return {
        "tally": tally, "backend": backend, "metrics": per_layer,
        "extra": {"spans": str(spans_path.relative_to(ROOT)),
                  "traced_windows": len(traced),
                  "untraced_windows": len(plain_walls)},
        "sim": summaries[0]["sim"], "digest": digests[0], "guards": guards,
        "counts": first.counts,
        "correct": (tally.failed == 0 and repeatable and counts_repeat
                    and guards_ok and self_sum_ok),
        "checks": {"window_repeats": repeatable,
                   "counts_repeat": counts_repeat, "guards": guards_ok,
                   "self_times_sum_to_op_wall": self_sum_ok},
    }


# -- output -----------------------------------------------------------------


def print_table(args: argparse.Namespace, outcome: Dict[str, Any]) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} backend={outcome['backend']}")
    rows = list(outcome["metrics"].items())
    if args.trace == 0:
        tail = outcome["extra"]["op_ms_p90"]
        if tail["beyond"] >= MIN_BEYOND_TAIL:
            rows.append(("op_ms_p90", tail))
        rows.extend((name, entry) for name, entry in outcome["sim"].items()
                    if isinstance(entry, dict))
    for name, entry in rows:
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}{suffix}")
    for name, guard in outcome["guards"].items():
        print(f"guard {name:<34} {guard['value']!s:>16} "
              f"{'ok' if guard['ok'] else 'FAILED'}")
    for message in outcome["tally"].errors:
        print(f"failed: {message}")


def run(args: argparse.Namespace) -> None:
    """Run one workload and print the table, document and result line."""
    if args.setup_probe:
        setup_probe(args)
        return
    pin_to_one_cpu()
    outcome = (traced_run if args.trace else timed_run)(args)
    tally = outcome["tally"]
    print_table(args, outcome)
    document = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "metadata": metadata(args.seed, outcome["backend"]),
        "metrics": outcome["metrics"],
        "extra": outcome["extra"],
        "sim": outcome["sim"],
        "window_digest": outcome["digest"],
        "guards": outcome["guards"],
        "checks": outcome["checks"],
        "counts": outcome.get("counts"),
        "errors": tally.errors,
    }
    print("RESULT " + json.dumps(document, sort_keys=True))
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in outcome["metrics"].items()},
    }))
