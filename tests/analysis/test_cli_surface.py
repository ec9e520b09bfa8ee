"""The ``warm`` subcommand and the ``--surface`` flags end to end."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main


def _run_json(capsys, argv):
    assert main(argv) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is True
    assert envelope["error"] is None
    return envelope["result"]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-surface") / "line.srf"
    code = main(
        [
            "warm",
            "--out",
            str(path),
            "--axis",
            "pstar:1.6:2.4:17",
            "--tolerance",
            "1e-2",
        ]
    )
    assert code == 0
    return str(path)


class TestWarmCommand:
    def test_emits_artifact_info(self, capsys, tmp_path):
        out = str(tmp_path / "tiny.srf")
        result = _run_json(
            capsys,
            ["warm", "--out", out, "--axis", "pstar:1.8:2.2:5", "--json"],
        )
        assert result["path"] == out
        assert result["points"] == 5
        assert len(result["checksum"]) == 64
        assert result["max_bound"] > 0.0

    def test_multi_axis_artifact(self, capsys, tmp_path):
        out = str(tmp_path / "plane.srf")
        result = _run_json(
            capsys,
            [
                "warm",
                "--out",
                out,
                "--axis",
                "pstar:1.8:2.2:5",
                "--axis",
                "sigma:0.08:0.12:3",
                "--json",
            ],
        )
        assert result["points"] == 15
        assert [axis["name"] for axis in result["axes"]] == ["pstar", "sigma"]

    def test_missing_axis_exits_cleanly(self, capsys):
        assert main(["warm", "--out", "/tmp/unused.srf"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_axis_exits_cleanly(self, capsys, tmp_path):
        out = str(tmp_path / "bad.srf")
        assert main(["warm", "--out", out, "--axis", "pstar:1:2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_surfaces_need_a_pstar_axis(self, capsys, tmp_path):
        out = str(tmp_path / "bad.srf")
        code = main(["warm", "--out", out, "--axis", "sigma:0.08:0.12:3"])
        assert code == 2
        assert "pstar" in capsys.readouterr().err


class TestSweepWithSurface:
    def test_routes_through_the_surface(self, capsys, artifact):
        result = _run_json(
            capsys,
            [
                "sweep",
                "--pstars",
                "1.8,2.0,3.5",
                "--surface",
                artifact,
                "--json",
            ],
        )
        assert result["engine"] == "chain"
        assert result["sources"] == ["surface", "surface", "scalar"]
        assert result["tolerance"] == pytest.approx(1e-2)

    def test_agrees_with_the_exact_engine_within_tolerance(
        self, capsys, artifact
    ):
        argv = ["sweep", "--pstars", "1.8,2.0,2.2", "--json"]
        exact = _run_json(capsys, argv)
        warm = _run_json(capsys, argv[:-1] + ["--surface", artifact, "--json"])
        for got, want in zip(warm["success_rate"], exact["success_rate"]):
            assert got == pytest.approx(want, abs=1e-2)

    def test_tolerance_zero_stays_exact(self, capsys, artifact):
        result = _run_json(
            capsys,
            [
                "sweep",
                "--pstars",
                "2.0",
                "--surface",
                artifact,
                "--tolerance",
                "0",
                "--json",
            ],
        )
        assert result["sources"] == ["scalar"]

    def test_legacy_and_surface_are_exclusive(self, capsys, artifact):
        code = main(
            ["sweep", "--pstars", "2.0", "--surface", artifact, "--legacy"]
        )
        assert code == 2

    def test_missing_artifact_exits_cleanly(self, capsys, tmp_path):
        code = main(
            ["sweep", "--pstars", "2.0", "--surface", str(tmp_path / "no.srf")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestBatchWithSurface:
    def test_request_tolerance_served_by_surface(
        self, capsys, artifact, tmp_path
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"kind": "solve", "pstar": 2.0, "tolerance": 0.01}\n'
            '{"kind": "solve", "pstar": 2.1}\n'
        )
        assert main(["batch", str(requests), "--surface", artifact]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert lines[0]["result"]["kind"] == "surface_answer"
        assert lines[0]["result"]["bound"] <= 0.01
        assert lines[1]["result"]["kind"] == "swap_equilibrium"

    def test_stats_snapshot_counts_surface_traffic(
        self, capsys, artifact, tmp_path
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"kind": "solve", "pstar": 2.0}\n')
        code = main(
            [
                "stats",
                str(requests),
                "--surface",
                artifact,
                "--tolerance",
                "0.01",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        # the registry is process-global, so assert floors, not equality
        hits = re.search(r"^repro_surface_hits_total (\d+)", text, re.M)
        assert hits is not None and int(hits.group(1)) >= 1
        loads = re.search(
            r'^repro_surface_loads_total\{outcome="ok"\} (\d+)', text, re.M
        )
        assert loads is not None and int(loads.group(1)) >= 1
