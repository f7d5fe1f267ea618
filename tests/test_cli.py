"""Tests for the ``python -m repro.experiments`` command-line interface."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_listing(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out
        assert "claim:" in out

    def test_run_single(self, capsys):
        assert main(["E5", "--scale", "0.2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "E5" in out
        assert "min_margin" in out

    def test_lowercase_id_accepted(self, capsys):
        assert main(["e5", "--scale", "0.2"]) == 0
        assert "E5" in capsys.readouterr().out

    def test_unknown_id_fails(self, capsys):
        assert main(["E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "abc"])
    def test_bad_scale_is_a_usage_error(self, scale, capsys):
        # argparse validation: exit code 2 plus a usage message, never a
        # raw ValueError traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["E5", "--scale", scale])
        assert excinfo.value.code == 2
        assert "scale must be" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["-1", "-4", "two"])
    def test_bad_workers_is_a_usage_error(self, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["E5", "--scale", "0.2", "--workers", workers])
        assert excinfo.value.code == 2
        assert "workers must be" in capsys.readouterr().err

    def test_batch_is_not_an_option(self, capsys):
        # The trial chunk size is the executor's choice, not the CLI's,
        # and the in-process shard loop keeps its own round bound.
        for flag, value in (("--batch", "8"), ("--max-rounds", "5")):
            with pytest.raises(SystemExit) as excinfo:
                main(["E5", "--scale", "0.2", flag, value])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err


class TestCliJson:
    def test_json_dir_written(self, tmp_path, capsys):
        assert main(["E5", "--scale", "0.2",
                     "--json-dir", str(tmp_path)]) == 0
        saved = tmp_path / "E5.json"
        assert saved.exists()
        import json

        payload = json.loads(saved.read_text())
        assert payload["experiment_id"] == "E5"


class TestCliLedger:
    def test_ledger_written_and_summarizable(self, tmp_path, capsys):
        from repro.observe import read_events
        from repro.observe.__main__ import main as observe_main

        path = tmp_path / "run.jsonl"
        assert main(["E5", "--scale", "0.2", "--ledger", str(path)]) == 0
        capsys.readouterr()
        events = read_events(path)
        kinds = {event["kind"] for event in events}
        assert {"cli_start", "experiment_start", "experiment_end"} <= kinds
        assert observe_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "E5" in out and "Run overview" in out

    def test_ledger_does_not_change_results(self, tmp_path, capsys):
        assert main(["E5", "--scale", "0.2", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert main(["E5", "--scale", "0.2", "--seed", "3",
                     "--ledger", str(tmp_path / "run.jsonl")]) == 0
        with_ledger = capsys.readouterr().out

        def stable(text):
            return [line for line in text.splitlines()
                    if "completed in" not in line]

        assert stable(plain) == stable(with_ledger)

    def test_progress_lines_on_stderr(self, capsys):
        assert main(["E5", "--scale", "0.2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[observe]" in err
        assert "E5 start" in err

    def test_summarize_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.observe.__main__ import main as observe_main

        assert observe_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read ledger" in capsys.readouterr().err
