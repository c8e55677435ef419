"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import ALL_EXPERIMENTS


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiments == ["table1"]
        assert args.preset == "default"
        assert args.scale is None
        assert args.jobs == 1
        assert args.list_experiments is False

    def test_jobs_and_list_flags(self):
        args = build_parser().parse_args(["all", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["--list"])
        assert args.list_experiments is True
        assert args.experiments == []

    def test_multiple_experiments_and_options(self):
        args = build_parser().parse_args(
            ["table3", "figure5", "--preset", "quick", "--scale", "0.1", "--max-rows", "5"]
        )
        assert args.experiments == ["table3", "figure5"]
        assert args.preset == "quick"
        assert args.scale == 0.1
        assert args.max_rows == 5


class TestMain:
    def test_unknown_experiment_exits_with_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_table_experiments_run_quickly(self, capsys):
        exit_code = main(["table1", "table2", "--scale", "0.05"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 1" in captured.out
        assert "Table 2" in captured.out
        assert "regenerated in" in captured.out

    def test_table3_with_tiny_scale(self, capsys):
        exit_code = main(["table3", "--scale", "0.05", "--max-rows", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "swm256" in captured.out
        assert "more rows" in captured.out

    def test_figure5_quick_preset(self, capsys):
        exit_code = main(["figure5", "--preset", "quick", "--scale", "0.05"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "memory port" in captured.out.lower()

    def test_repeated_experiment_ids_run_once(self, capsys):
        exit_code = main(["table1", "table1", "table2", "table1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count("regenerated in") == 2
        assert captured.out.count("[table1 regenerated") == 1

    def test_all_plus_explicit_id_not_run_twice(self, capsys):
        exit_code = main(["table1", "all", "table2", "--scale", "0.05", "--preset", "quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        # 'all' expands to the full experiment list; explicit duplicates collapse
        assert captured.out.count("regenerated in") == len(ALL_EXPERIMENTS)

    def test_list_flag_prints_all_experiments(self, capsys):
        exit_code = main(["--list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ALL_EXPERIMENTS:
            assert name in captured.out
        assert "Figure 10" in captured.out

    def test_no_experiments_and_no_list_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])

    def test_jobs_flag_produces_identical_report(self, capsys):
        exit_code = main(["figure5", "--preset", "quick", "--scale", "0.05"])
        serial = capsys.readouterr().out
        assert exit_code == 0
        exit_code = main(["figure5", "--preset", "quick", "--scale", "0.05", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert exit_code == 0

        def rows(text: str) -> list[str]:
            return [line for line in text.splitlines() if "regenerated in" not in line]

        assert rows(serial) == rows(parallel)


class TestServiceCommands:
    def test_serve_and_submit_round_trip(self, tmp_path, capsys):
        import re
        import threading

        from repro.cli import serve_main, submit_main

        store_dir = tmp_path / "store"
        output = {}

        def run_server() -> None:
            output["code"] = serve_main(
                ["--port", "0", "--store-dir", str(store_dir),
                 "--workers", "1", "--duration", "12", "--max-store-mb", "16"]
            )

        server_thread = threading.Thread(target=run_server, daemon=True)
        server_thread.start()
        url = None
        for _ in range(100):
            captured = capsys.readouterr().out
            match = re.search(r"serving on (http://\S+)", captured)
            if match:
                url = match.group(1)
                break
            import time

            time.sleep(0.05)
        assert url is not None, "serve never printed its URL"

        code = submit_main(
            ["--url", url, "--machine", "reference",
             "--benchmark", "tomcatv", "--scale", "0.05"]
        )
        assert code == 0
        first = capsys.readouterr().out
        assert "served_from: executed" in first
        assert re.search(r"\d+ instructions in \d+ cycles", first)

        # the second submission must be answered from the durable store
        code = submit_main(
            ["--url", url, "--machine", "reference",
             "--benchmark", "tomcatv", "--scale", "0.05", "--no-wait"]
        )
        assert code == 0
        assert "served_from: store" in capsys.readouterr().out
        server_thread.join(timeout=30.0)
        assert output["code"] == 0
        assert "service stopped" in capsys.readouterr().out

    def test_submit_against_dead_server_exits_nonzero(self, capsys):
        from repro.cli import submit_main

        code = submit_main(
            ["--url", "http://127.0.0.1:9", "--machine", "reference",
             "--benchmark", "tomcatv", "--no-wait"]
        )
        assert code == 2
        assert "service error:" in capsys.readouterr().err

    @staticmethod
    def _start_serve(log_path, *args: str):
        """Start ``repro-mtv serve`` as a child process; return it and its URL.

        Output goes to ``log_path`` rather than a pipe, so no reader can
        block on a child (or an orphaned pool worker) that keeps it open.
        """
        import os
        import re
        import subprocess
        import sys
        import time
        from pathlib import Path

        with open(log_path, "w") as log:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONPATH": "src"},
                cwd=Path(__file__).resolve().parent.parent,
            )
        deadline = time.monotonic() + 60.0
        while process.poll() is None and time.monotonic() < deadline:
            match = re.search(r"(?:serving|routing) on (http://\S+)", log_path.read_text())
            if match:
                return process, match.group(1)
            time.sleep(0.05)
        process.kill()
        process.wait(timeout=30.0)
        raise AssertionError(f"serve never listened:\n{log_path.read_text()}")

    @staticmethod
    def _terminate(process, log_path) -> str:
        """Send SIGTERM, wait for the child to exit and return its output."""
        import signal

        try:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        return log_path.read_text()

    def test_sigterm_stops_the_service_and_its_pool_worker(self, tmp_path):
        import os
        import time

        from repro.service import ServiceClient

        log_path = tmp_path / "serve.log"
        process, url = self._start_serve(
            log_path, "--workers", "1", "--store-dir", str(tmp_path / "store")
        )
        try:
            client = ServiceClient(url)
            handle = client.submit("reference", {"benchmark": "tomcatv", "scale": 0.05})
            handle.wait(timeout=120.0)
            spans = {span["span"]: span for span in client.trace(handle.job_id)["spans"]}
            worker_pid = spans["execute"]["worker_pid"]
            assert worker_pid not in (None, process.pid)
        finally:
            output = self._terminate(process, log_path)
        assert process.returncode == 0, output
        assert "service stopped" in output
        deadline = time.monotonic() + 10.0
        while True:
            try:
                os.kill(worker_pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"pool worker {worker_pid} outlived serve"
            time.sleep(0.05)

    def test_sigterm_stops_the_router(self, tmp_path):
        log_path = tmp_path / "router.log"
        process, _url = self._start_serve(log_path, "--shard-of", "http://127.0.0.1:9")
        output = self._terminate(process, log_path)
        assert process.returncode == 0, output
        assert "router stopped" in output

    def test_main_routes_service_subcommands(self, monkeypatch):
        import repro.cli as cli

        seen = {}
        monkeypatch.setattr(cli, "serve_main", lambda argv: seen.setdefault("serve", argv) and 0)
        monkeypatch.setattr(cli, "submit_main", lambda argv: seen.setdefault("submit", argv) and 0)
        monkeypatch.setattr(cli, "sweep_main", lambda argv: seen.setdefault("sweep", argv) and 0)
        assert cli.main(["serve", "--port", "0"]) == 0
        assert cli.main(["submit", "--no-wait"]) == 0
        assert cli.main(["sweep", "spec.toml", "--quiet"]) == 0
        assert seen == {
            "serve": ["--port", "0"],
            "submit": ["--no-wait"],
            "sweep": ["spec.toml", "--quiet"],
        }


class TestSweepCommand:
    SPEC = """\
[sweep]
name = "cli-mini"

[request]
machine = "reference"
mode = "single"
scale = 0.05

[axes]
workload = ["tomcatv"]
memory_latency = [1, 50]

[metrics]
select = ["cycles"]
"""

    def test_sweep_runs_spec_and_writes_manifest(self, tmp_path, capsys):
        from repro.cli import sweep_main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(self.SPEC)
        out_dir = tmp_path / "out"
        code = sweep_main([str(spec_path), "--out", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "[1/2]" in captured and "[2/2]" in captured
        assert "2 points" in captured
        assert (out_dir / "sweep.json").exists()
        assert (out_dir / "ledger.sha256").exists()
        assert (out_dir / "SUMMARY.md").exists()

    def test_sweep_quiet_suppresses_progress(self, tmp_path, capsys):
        from repro.cli import sweep_main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(self.SPEC)
        assert sweep_main([str(spec_path), "--quiet"]) == 0
        assert "[1/2]" not in capsys.readouterr().out

    def test_sweep_missing_spec_is_an_error(self, tmp_path, capsys):
        from repro.cli import sweep_main

        assert sweep_main([str(tmp_path / "no-such-spec.toml")]) == 1
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_sweep_failed_points_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import sweep_main

        spec_path = tmp_path / "broken.toml"
        spec_path.write_text(
            self.SPEC.replace('machine = "reference"', 'machine = "no-such-machine"')
        )
        code = sweep_main([str(spec_path), "--quiet"])
        assert code == 1
        assert "no-such-machine" in capsys.readouterr().err
