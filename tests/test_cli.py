"""Tests for the command-line interfaces (python -m repro / repro.bench)."""

import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main

CORPUS = pathlib.Path(__file__).parent / "corpus"


class TestAnalyzerCli:
    def test_buggy_file_exit_code_and_output(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc")])
        out = capsys.readouterr().out
        assert rc == 1  # findings present
        assert "1 finding(s)" in out
        assert "use-after-free" in out

    def test_clean_file_exit_zero(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_guarded_infeasible.mcc")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_multiple_checkers(self, capsys):
        rc = repro_main(
            [
                str(CORPUS / "mixed_all_checkers.mcc"),
                "--checkers",
                "use-after-free,double-free,null-deref",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "use-after-free" in out

    def test_unknown_checker_rejected(self):
        with pytest.raises(SystemExit):
            repro_main([str(CORPUS / "uaf_basic.mcc"), "--checkers", "nonsense"])

    def test_missing_file(self, capsys):
        rc = repro_main(["/nonexistent/file.mcc"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.mcc"
        bad.write_text("void main( {")
        rc = repro_main([str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_show_vfg(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--show-vfg"])
        out = capsys.readouterr().out
        assert "VFG:" in out

    def test_stats_flag(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--stats"])
        out = capsys.readouterr().out
        assert "queries" in out and "passes:" in out and "parse" in out

    def test_stats_on_a_repeated_file_runs_every_pass_twice(self, capsys):
        path = str(CORPUS / "uaf_basic.mcc")
        repro_main([path, path, "--stats"])
        out = capsys.readouterr().out
        first, second = out.split(f"{path}: ")[1:]

        def statuses(run):
            table = run.split("status  seconds\n")[1].strip().splitlines()
            return [tuple(row.split()[:2]) for row in table]

        assert statuses(first) == statuses(second)
        assert {status for _name, status in statuses(second)} == {"run"}
        assert ("detect:use-after-free", "run") in statuses(second)

    @pytest.mark.parametrize(
        "flags", [["--unroll", "0"], ["--context-depth", "-1"], ["--max-depth", "-2"]]
    )
    def test_out_of_range_config_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main([str(CORPUS / "uaf_basic.mcc"), *flags])
        assert exc.value.code == 2
        assert "must" in capsys.readouterr().err

    def test_all_threads_flag(self, tmp_path, capsys):
        seq = tmp_path / "seq.mcc"
        seq.write_text(
            "void main() { int* p = malloc(); free(p); print(*p); }"
        )
        assert repro_main([str(seq)]) == 0  # inter-thread only: clean
        assert repro_main([str(seq), "--all-threads"]) == 1


class TestBenchCli:
    def test_subject_selection(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.bench",
                "--subjects",
                "lrzip",
                "--tools",
                "canary",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "lrzip" in proc.stdout
        assert "Table 1" in proc.stdout
        assert "Fig. 8" in proc.stdout
