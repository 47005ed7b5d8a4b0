"""Checks of the benchmark itself.

Every count of a traced run repeats exactly across two runs of one
seed, and again on a held-out seed.  Every simulated-time value is
identical in the traced and the untraced run of a seed.  The metric
names match ``BENCHMARK.json``, and the benchmark refuses to run
without the program's source.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; each test starts the benchmark in fresh processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
WORKLOADS = ("mode_ii", "fig5_sweep", "serve_nominal", "serve_overload")
SEED = 7
HELD_OUT_SEED = 1009
#: Per-layer metrics that are counts (exact by construction).
COUNT_PREFIXES = ("sim.events", "accel.", "fpga.frames_written",
                  "sweep.cache.", "serve.passes")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def parse(done):
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    document = json.loads(lines[-2][len("RESULT "):])
    assert result["correct"], document["checks"]
    assert result["failed"] == 0, document["errors"]
    return result, document


def traced_counts(result, document):
    counts = {name: entry["value"]
              for name, entry in result["metrics"].items()
              if name.startswith(COUNT_PREFIXES)
              and not name.endswith(".ms")}
    return counts, document["counts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_sim_matches_untraced(workload):
    names = spec()
    traced = {}
    for seed in (SEED, HELD_OUT_SEED):
        first = parse(run(workload, seed, 1))
        second = parse(run(workload, seed, 1))
        assert traced_counts(*first) == traced_counts(*second)
        traced[seed] = first
    result, document = traced[SEED]
    assert list(result["metrics"]) == [m["name"] for m in names["per_layer"]]
    for metric in names["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    timed, timed_document = parse(run(workload, SEED, 0))
    assert list(timed["metrics"]) == [m["name"]
                                      for m in names["end_to_end"]]
    assert timed_document["sim"] == document["sim"]
    assert timed_document["window_digest"] == document["window_digest"]
    assert any(name.startswith("sim_") for name in document["sim"])
    assert timed_document["metadata"]["accel.backend"] \
        == document["metadata"]["accel.backend"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("mode_ii", SEED, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
