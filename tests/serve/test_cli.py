"""The ``repro serve`` command line: run, bench, files, sanitize."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel
from repro.cli import main

SMALL = ["--requests", "150", "--seed", "5"]


def test_run_prints_slo_and_tenant_tables(capsys):
    assert main(["serve", "run", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "serve --" in out
    assert "throughput" in out
    assert "per-tenant" in out
    for tenant in ("radar", "video", "iot", "batch"):
        assert tenant in out


def test_run_writes_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["serve", "run", *SMALL, "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["requests"] == 150
    assert report["completed"] + report["shed"] == 150
    assert str(path) in capsys.readouterr().out


def test_run_json_is_replayable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["serve", "run", *SMALL, "--json", str(first)]) == 0
    assert main(["serve", "run", *SMALL, "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_metrics_table(capsys):
    assert main(["serve", "run", *SMALL, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "serve.requests.completed" in out
    assert "serve.dispatch.cold" in out


def test_run_sanitize_clean(capsys):
    assert main(["serve", "run", "--requests", "120", "--sanitize"]) \
        == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert f"accel.backend={accel.backend_name()}" in out


def test_run_reports_backend_but_json_stays_backend_free(tmp_path,
                                                         capsys):
    # The printed report attributes the run to the active backend;
    # the JSON report (and therefore its digest) must not, so reports
    # stay byte-identical across backends.
    path = tmp_path / "report.json"
    assert main(["serve", "run", *SMALL, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "accel.backend" in out
    assert accel.backend_name() in out
    assert "backend" not in path.read_text()


def test_bench_curve_and_output(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert main(["serve", "bench", *SMALL, "--loads", "2,0.5",
                 "--output", str(path)]) == 0
    out = capsys.readouterr().out
    assert "serve bench --" in out
    assert "300 requests across 2 load levels" in out
    document = json.loads(path.read_text())
    assert document["kind"] == "serve-bench"
    assert document["accel.backend"] == accel.backend_name()
    assert document["loads"] == [0.5, 2.0]
    assert len(document["levels"]) == 2
    assert "_wall_s" not in document
    # Attribution lives at document level only; the per-level reports
    # (whose digests are pinned cross-backend) stay backend-free.
    for cell in document["levels"]:
        assert "backend" not in json.dumps(cell["report"])


def test_bench_merged_metrics(capsys):
    assert main(["serve", "bench", *SMALL, "--loads", "0.5",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "merged serve metrics" in out
    assert "serve.requests.offered" in out


def test_bench_rejects_bad_loads():
    with pytest.raises(SystemExit):
        main(["serve", "bench", "--loads", "fast"])


def test_serve_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["serve"])


def test_library_error_is_a_one_line_usage_error(capsys):
    # --boards 0 passes the parser; the ServeSpec rejects it.
    assert main(["serve", "run", "--boards", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "repro: error: fleet needs >= 1 board, got 0\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--load", "--rate-rps",
                                  "--frequency-mhz"])
def test_non_finite_number_is_a_one_line_usage_error(flag, value,
                                                     capsys):
    # ``--flag=-inf``: a bare ``-inf`` would parse as an option.
    assert main(["serve", "run", *SMALL, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    field = flag[2:].replace("-", "_")
    assert captured.err == \
        f"repro: error: {field} must be finite, got {value}\n"
    assert captured.out == ""


def test_library_error_exit_status_from_the_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "run", "--boards", "0"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "repro: error: fleet needs >= 1 board, got 0"]
