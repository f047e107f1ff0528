"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.algorithm == "I"
        assert args.faults == 200

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "--name", "fig99"])


class TestCommands:
    def test_campaign_runs_and_prints_table(self, capsys):
        code = main(
            [
                "campaign",
                "--algorithm",
                "I",
                "--faults",
                "8",
                "--iterations",
                "25",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Coverage" in out
        assert "severe share of value failures" in out

    def test_campaign_with_database(self, capsys, tmp_path):
        path = tmp_path / "campaign.db"
        code = main(
            [
                "campaign",
                "--faults",
                "5",
                "--iterations",
                "20",
                "--database",
                str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        assert "stored in" in capsys.readouterr().out

    def test_unknown_algorithm_exits(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--algorithm", "III", "--faults", "2"])

    def test_figures_render(self, capsys):
        for name in ("fig03", "fig04", "fig05"):
            assert main(["figure", "--name", name]) == 0
            out = capsys.readouterr().out
            assert "time (s)" in out

    def test_listing(self, capsys):
        assert main(["listing", "--algorithm", "II"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm II" in out
        assert "svc 0" in out

    def test_propagate(self, capsys):
        code = main(
            [
                "propagate",
                "--element",
                "r0",
                "--bit",
                "5",
                "--time",
                "100",
                "--iterations",
                "20",
                "--max-instructions",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "propagation of registers/r0[5]" in out

    def test_compare_prints_table4(self, capsys):
        code = main(["compare", "--faults", "6", "--iterations", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Undetected Wrong Results (Permanent)" in out

    def test_run_minilang_source(self, capsys, tmp_path):
        source = tmp_path / "task.ctl"
        source.write_text(
            "program t\ninputs r, y\noutputs u\nvar x := 0.0\n"
            "begin\n  u := (r - y) * 0.01 + x;\n"
            "  if u > 70.0 then u := 70.0; end if;\n"
            "  if u < 0.0 then u := 0.0; end if;\n"
            "  x := x + 0.0154 * (r - y) * 0.03;\nend\n"
        )
        code = main(["run", "--source", str(source), "--iterations", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed-loop output" in out

    def test_run_rejects_wrong_io_shape(self, tmp_path):
        source = tmp_path / "bad.ctl"
        source.write_text(
            "program t\ninputs a\noutputs b\nbegin\n  b := a;\nend\n"
        )
        with pytest.raises(SystemExit):
            main(["run", "--source", str(source)])


class TestAbortExitCodes:
    """Only an operator interrupt gets a signal exit code; queue-driven
    aborts exit 75 (EX_TEMPFAIL) so wrappers can retry or resume."""

    @pytest.mark.parametrize(
        "reason,expected",
        [("sigint", 130), ("sigterm", 143), ("cancel", 75), ("lease", 75)],
    )
    def test_abort_reason_maps_to_exit_code(
        self, monkeypatch, capsys, reason, expected
    ):
        from repro.errors import CampaignAborted
        from repro.goofi import ScifiCampaign

        def aborting_run(self, **_kw):
            raise CampaignAborted("interrupted", campaign_id=None, reason=reason)

        monkeypatch.setattr(ScifiCampaign, "run", aborting_run)
        code = main(["campaign", "--faults", "4", "--iterations", "20"])
        assert code == expected
        assert f"({reason})" in capsys.readouterr().err


class TestServiceCommands:
    def test_submit_serve_status_roundtrip(self, capsys, tmp_path):
        root = str(tmp_path / "svc")
        common = ["--root", root]
        assert (
            main(
                ["submit", *common, "--faults", "8", "--iterations", "25"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign 1 queued" in out
        assert main(["status", *common]) == 0
        assert "campaign 1: pending" in capsys.readouterr().out
        assert main(["serve", *common, "--once"]) == 0
        assert "resolved 1 campaign job(s)" in capsys.readouterr().out
        assert main(["status", *common, "--campaign", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign 1: done" in out
        assert "finished" in out
        assert main(["status", *common, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["campaigns"][0]["status"] == "done"
        assert listing["stale_leases"] == 0

    def test_cancel_pending_and_unknown(self, capsys, tmp_path):
        root = str(tmp_path / "svc")
        assert main(["submit", "--root", root, "--faults", "4"]) == 0
        capsys.readouterr()
        assert main(["cancel", "--root", root, "--campaign", "1"]) == 0
        assert "cancelled" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["cancel", "--root", root, "--campaign", "99"])
        # Draining an all-cancelled queue is a no-op, not an error.
        assert main(["serve", "--root", root, "--once"]) == 0

    def test_status_unknown_campaign_exits(self, tmp_path):
        root = str(tmp_path / "svc")
        main(["submit", "--root", root, "--faults", "4"])
        with pytest.raises(SystemExit):
            main(["status", "--root", root, "--campaign", "42"])

    def test_serve_multiple_worker_threads(self, capsys, tmp_path):
        root = str(tmp_path / "svc")
        for _ in range(2):
            assert main(["submit", "--root", root, "--faults", "6"]) == 0
        capsys.readouterr()
        assert main(["serve", "--root", root, "--once", "--workers", "2"]) == 0
        assert "resolved 2 campaign job(s)" in capsys.readouterr().out

    def test_submit_shares_campaign_config_flags(self):
        args = build_parser().parse_args(
            ["submit", "--root", "r", "--algorithm", "II", "--prune"]
        )
        assert args.algorithm == "II" and args.prune
        # Every configuration flag parses identically under both commands.
        flags = [
            "--algorithm", "II", "--faults", "7", "--seed", "3",
            "--iterations", "11", "--partitions", "cache", "--prune",
            "--collapse", "--chaos", "{}",
        ]
        parsed = [
            vars(build_parser().parse_args(command + flags))
            for command in (["campaign"], ["submit", "--root", "r"])
        ]
        shared = {key for key in parsed[0] if key in parsed[1]} - {"command", "func"}
        assert shared == {
            "algorithm", "faults", "seed", "iterations", "partitions",
            "prune", "collapse", "chaos",
        }
        assert {k: parsed[0][k] for k in shared} == {k: parsed[1][k] for k in shared}
