"""CLI smoke tests (every subcommand prints its table)."""

import pytest

from repro.cli import build_parser, main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "X-MatchPRO" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "DyCloGen" in out and "1035" in out


def test_table3_with_size(capsys):
    assert main(["table3", "--size-kb", "32"]) == 0
    out = capsys.readouterr().out
    assert "UPaRC_i" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_table3_non_finite_size_is_a_one_line_usage_error(value, capsys):
    # ``--size-kb=-inf``: a bare ``-inf`` would parse as an option.
    assert main(["table3", f"--size-kb={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"repro: error: size must be finite, got {value} KB\n"
    assert captured.out == ""


def test_table3_negative_size_is_a_one_line_usage_error(capsys):
    assert main(["table3", "--size-kb=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        "repro: error: size must be non-negative, got -1024\n"


def test_fig7(capsys):
    assert main(["fig7"]) == 0
    out = capsys.readouterr().out
    assert "183.0" in out and "453.0" in out


def test_energy(capsys):
    assert main(["energy"]) == 0
    out = capsys.readouterr().out
    assert "ratio: 44" in out or "ratio: 45" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["table9"])


def test_parser_lists_all_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for name in ("table1", "table2", "table3", "fig5", "fig7",
                 "energy", "lint", "all"):
        assert name in help_text


def test_lint_subcommand_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(delay_ps: int) -> int:\n    return delay_ps\n")
    assert main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstart = time.time()\n")
    assert main(["lint", str(dirty)]) == 1
    assert "D101" in capsys.readouterr().out

    assert main(["lint", str(tmp_path / "missing.py")]) == 2


def test_selftest(capsys):
    from repro.cli import main as cli_main
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_report_to_stdout(capsys):
    from repro.cli import main as cli_main
    assert cli_main(["report"]) == 0
    out = capsys.readouterr().out
    assert "# UPaRC reproduction — live report" in out
    assert "Ranking: identical to the paper's." in out
    assert "Exact match." in out
    assert "45x" in out


def test_report_to_file(tmp_path, capsys):
    from repro.cli import main as cli_main
    target = tmp_path / "report.md"
    assert cli_main(["report", "--output", str(target)]) == 0
    text = target.read_text()
    assert "## Table III" in text
    assert "UPaRC_i" in text


def test_validate_quick(capsys):
    from repro.cli import main as cli_main
    assert cli_main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "claims hold" in out
    assert "FAIL" not in out
