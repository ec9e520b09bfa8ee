"""Tests for the ``repro-swaps batch`` command and CLI hardening."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main


def _write_requests(tmp_path, lines):
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _result_lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestBatchCommand:
    def test_valid_requests_exit_zero(self, capsys, tmp_path):
        path = _write_requests(
            tmp_path,
            [
                '{"kind": "solve", "pstar": 2.0}',
                '{"kind": "solve", "pstar": 2.0, "collateral": 0.5}',
                '{"kind": "validate", "pstar": 2.0, "n_paths": 2000, "seed": 3}',
            ],
        )
        assert main(["batch", path]) == 0
        results = _result_lines(capsys)
        assert len(results) == 3
        assert all(r["ok"] for r in results)
        assert results[0]["result"]["kind"] == "swap_equilibrium"
        assert results[1]["result"]["kind"] == "collateral_equilibrium"
        assert results[2]["result"]["kind"] == "validation"
        assert results[2]["result"]["seed_used"] == 3

    def test_invalid_values_are_structured_but_exit_zero(self, capsys, tmp_path):
        path = _write_requests(
            tmp_path,
            [
                '{"kind": "solve", "pstar": 2.0}',
                '{"kind": "solve", "pstar": -1.0}',
                '{"kind": "frobnicate"}',
                '{"kind": "validate", "pstar": 2.0, "n_paths": 0}',
            ],
        )
        assert main(["batch", path]) == 0  # every line parsed as JSON
        results = _result_lines(capsys)
        assert [r["ok"] for r in results] == [True, False, False, False]
        assert results[1]["error"]["code"] == "invalid_request"
        assert results[2]["error"]["code"] == "invalid_request"
        assert results[3]["error"]["code"] == "invalid_request"

    def test_unparseable_line_exits_nonzero(self, capsys, tmp_path):
        path = _write_requests(
            tmp_path,
            ['{"kind": "solve", "pstar": 2.0}', "this is not json"],
        )
        assert main(["batch", path]) == 1
        results = _result_lines(capsys)
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False
        assert results[1]["error"]["code"] == "parse_error"
        assert results[1]["line"] == 2

    def test_blank_lines_skipped(self, capsys, tmp_path):
        path = _write_requests(
            tmp_path, ['{"kind": "solve", "pstar": 2.0}', "", "   "]
        )
        assert main(["batch", path]) == 0
        assert len(_result_lines(capsys)) == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"kind": "solve", "pstar": 2.0}\n')
        )
        assert main(["batch"]) == 0
        assert _result_lines(capsys)[0]["ok"]

    def test_duplicate_requests_share_key_and_cache(self, capsys, tmp_path):
        line = '{"kind": "solve", "pstar": 2.0}'
        path = _write_requests(tmp_path, [line, line])
        assert main(["batch", path]) == 0
        results = _result_lines(capsys)
        assert results[0]["key"] == results[1]["key"]
        assert results[0]["result"] == results[1]["result"]

    def test_cache_dir_warm_run(self, capsys, tmp_path):
        path = _write_requests(tmp_path, ['{"kind": "solve", "pstar": 2.0}'])
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", path, "--cache-dir", cache_dir]) == 0
        cold = _result_lines(capsys)[0]
        assert main(["batch", path, "--cache-dir", cache_dir]) == 0
        warm = _result_lines(capsys)[0]
        assert not cold["cached"] and warm["cached"]
        assert warm["result"] == cold["result"]

    def test_params_override(self, capsys, tmp_path):
        path = _write_requests(
            tmp_path,
            [
                '{"kind": "solve", "pstar": 2.0}',
                '{"kind": "solve", "pstar": 2.0, "params": {"sigma": 0.15}}',
            ],
        )
        assert main(["batch", path]) == 0
        results = _result_lines(capsys)
        assert results[0]["key"] != results[1]["key"]
        assert (
            results[0]["result"]["success_rate"]
            != results[1]["result"]["success_rate"]
        )

    def test_workers_flag_matches_serial(self, capsys, tmp_path):
        lines = [
            f'{{"kind": "validate", "pstar": {k}, "n_paths": 2000, "seed": 4}}'
            for k in (1.8, 2.0, 2.2)
        ]
        path = _write_requests(tmp_path, lines)
        assert main(["batch", path, "--workers", "1"]) == 0
        serial = _result_lines(capsys)
        assert main(["batch", path, "--workers", "2"]) == 0
        parallel = _result_lines(capsys)
        assert [r["result"] for r in serial] == [r["result"] for r in parallel]


class TestHungWorker:
    def test_a_hung_worker_does_not_hold_the_exit(self, tmp_path):
        # the hung line answers `timeout` at 1 s; the process must exit
        # then too, not when the 20 s stall ends
        import repro

        plan = tmp_path / "hang.json"
        plan.write_text(
            json.dumps(
                {"seed": 0, "faults": [{"kind": "worker_hang", "delay": 20.0, "count": 1}]}
            )
        )
        path = _write_requests(
            tmp_path,
            [
                '{"kind": "solve", "pstar": 2.0}',
                '{"kind": "solve", "pstar": 2.0, "collateral": 0.5}',
                '{"kind": "validate", "pstar": 2.0, "n_paths": 2000, "seed": 42}',
            ],
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "repro.cli", "batch", path, "--workers", "2"]
        command += ["--timeout", "1", "--fault-plan", str(plan)]
        started = time.perf_counter()
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=60, env=env
        )
        elapsed = time.perf_counter() - started
        assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        assert records[0]["error"]["code"] == "timeout"
        assert all(record["ok"] for record in records[1:])
        assert elapsed < 10.0


class TestHardening:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-swaps" in capsys.readouterr().out

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure99"])
        assert excinfo.value.code != 0

    def test_invalid_pstar_clean_error(self, capsys):
        assert main(["solve", "--pstar", "-3"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_invalid_collateral_clean_error(self, capsys):
        assert main(["solve", "--pstar", "2.0", "--collateral", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_validate_paths_clean_error(self, capsys):
        assert main(["validate", "--pstar", "2.0", "--paths", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_pstar_clean_error(self, capsys):
        assert main(["solve", "--pstar", "nan"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["batch", "stats"])
    def test_timeout_without_workers_clean_error(self, capsys, tmp_path, command):
        # a serial solve cannot be preempted, so the budget needs a pool
        # (serve's ServerConfig check is in tests/service/test_api.py)
        path = _write_requests(tmp_path, ['{"kind": "solve", "pstar": 2.0}'])
        assert main([command, "--timeout", "1", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "workers > 1" in err

    def test_missing_batch_file_clean_error(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
