"""Tests for the command-line interface."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.cli import build_parser, main
from repro.core.series import VectorSeries
from repro.core.vector import StateCatalog
from repro.io.formats import write_series_jsonl


@pytest.fixture
def series_file(tmp_path):
    series = VectorSeries(["n1", "n2"], StateCatalog())
    t0 = datetime(2025, 1, 1)
    for day in range(10):
        state = "LAX" if day < 5 else "AMS"
        series.append_mapping({"n1": state, "n2": "LAX"}, t0 + timedelta(days=day))
    path = tmp_path / "series.jsonl"
    with path.open("w") as stream:
        write_series_jsonl(series, stream)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "nope"])


class TestAnalyze:
    def test_analyze_jsonl(self, series_file, capsys):
        assert main(["analyze", str(series_file)]) == 0
        out = capsys.readouterr().out
        assert "modes: 2" in out
        assert "mode (i)" in out

    def test_analyze_flags(self, series_file, capsys):
        main(
            [
                "analyze",
                str(series_file),
                "--heatmap",
                "--stackplot",
                "--events",
                "--policy",
                "exclude",
                "--linkage",
                "complete",
            ]
        )
        out = capsys.readouterr().out
        assert "scale:" in out  # heatmap legend
        assert "events:" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--heatmap", "--heatmap-size", "0"], "--heatmap-size: must be positive"),
            (["--interpolation-limit", "-2"], "--interpolation-limit: must be non-negative"),
        ],
    )
    def test_bad_flag_is_usage_error(self, series_file, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(series_file), *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro analyze")
        assert message in err

    def test_interpolation_limit_zero_is_accepted(self, series_file, capsys):
        assert main(["analyze", str(series_file), "--interpolation-limit", "0"]) == 0
        assert "modes: 2" in capsys.readouterr().out

    def test_analyze_unknown_extension(self, tmp_path):
        bogus = tmp_path / "series.xml"
        bogus.write_text("<nope/>")
        with pytest.raises(SystemExit):
            main(["analyze", str(bogus)])


class TestConvert:
    def test_jsonl_to_csv_round_trip(self, series_file, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        main(["convert", str(series_file), str(csv_path)])
        assert csv_path.exists()
        back = tmp_path / "back.jsonl"
        main(["convert", str(csv_path), str(back)])
        assert back.read_text().count("\n") == series_file.read_text().count("\n")


class TestExportExplain:
    def test_export_writes_csvs(self, series_file, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert main(["export", str(series_file), str(out_dir)]) == 0
        assert (out_dir / "heatmap.csv").exists()
        assert (out_dir / "stackplot.csv").exists()
        out = capsys.readouterr().out
        assert "heatmap:" in out

    def test_export_svg_flag(self, series_file, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        main(["export", str(series_file), str(out_dir), "--svg"])
        assert (out_dir / "heatmap.svg").exists()
        assert (out_dir / "stackplot.svg").exists()

    def test_explain_prints_headlines(self, series_file, capsys):
        main(["explain", str(series_file)])
        out = capsys.readouterr().out
        assert "changed catchment" in out

    def test_explain_quiet_series(self, tmp_path, capsys):
        series = VectorSeries(["n1"], StateCatalog())
        t0 = datetime(2025, 1, 1)
        for day in range(4):
            series.append_mapping({"n1": "LAX"}, t0 + timedelta(days=day))
        path = tmp_path / "quiet.jsonl"
        with path.open("w") as stream:
            write_series_jsonl(series, stream)
        main(["explain", str(path)])
        assert "no events" in capsys.readouterr().out


class TestOnlineCommand:
    def test_online_replay(self, series_file, capsys):
        main(["online", str(series_file), "--event-threshold", "0.2"])
        out = capsys.readouterr().out
        assert "new mode" in out
        assert "done:" in out
        assert "2 modes" in out


class TestBundleCommand:
    def test_bundle_demo(self, tmp_path, capsys):
        main(["bundle", "usc", str(tmp_path / "release")])
        out = capsys.readouterr().out
        assert "bundle written" in out
        from repro.io.bundle import read_bundle

        bundle = read_bundle(tmp_path / "release")
        assert bundle.name == "usc"
        assert bundle.observations > 0


class TestCatalog:
    def test_catalog_lists_datasets(self, capsys):
        main(["catalog"])
        out = capsys.readouterr().out
        assert "B-Root/Verfploeter" in out
        assert "USC/traceroute" in out
        assert "repro.datasets" in out


class TestServeCommands:
    def test_serve_parser_accepts_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--data-dir", "/tmp/x",
                "--port", "0",
                "--queue-size", "8",
                "--snapshot-every", "50",
                "--fsync",
            ]
        )
        assert args.command == "serve"
        assert args.queue_size == 8 and args.fsync

    def test_serve_requires_data_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_client_subcommands_parse(self):
        parser = build_parser()
        create = parser.parse_args(
            ["client", "create", "svc", "--networks", "a,b,c"]
        )
        assert create.client_command == "create"
        ingest = parser.parse_args(
            ["client", "ingest", "svc", "series.jsonl", "--create"]
        )
        assert ingest.client_command == "ingest" and ingest.create
        for name in ("stats", "list"):
            assert build_parser().parse_args(["client", name]).client_command == name

    def test_client_end_to_end_against_live_server(self, series_file, tmp_path, capsys):
        """`repro client ingest/timeline/stats` against a real server."""
        import asyncio
        import threading

        from repro.serve import FenrirServer, ServeConfig

        ready = threading.Event()
        holder = {}

        def run() -> None:
            async def main_coroutine() -> None:
                server = FenrirServer(
                    ServeConfig(data_dir=tmp_path / "data", port=0)
                )
                await server.start()
                holder["address"] = server.address
                holder["loop"] = asyncio.get_running_loop()
                holder["stop"] = asyncio.Event()
                ready.set()
                await holder["stop"].wait()
                await server.stop()

            asyncio.run(main_coroutine())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        host, port = holder["address"]
        base = ["client", "--host", host, "--port", str(port)]
        try:
            assert main([*base, "ingest", "svc", str(series_file), "--create"]) == 0
            out = capsys.readouterr().out
            assert "ingested 10 rounds" in out

            assert main([*base, "timeline", "svc"]) == 0
            out = capsys.readouterr().out
            assert "mode   0" in out and "mode   1" in out

            assert main([*base, "stats"]) == 0
            out = capsys.readouterr().out
            assert '"rounds_ingested": 10' in out

            assert main([*base, "snapshot", "svc"]) == 0
            assert "seq 10" in capsys.readouterr().out

            assert main([*base, "list"]) == 0
            assert "svc" in capsys.readouterr().out

            assert main([*base, "query", "svc"]) == 0
            assert '"modes": 2' in capsys.readouterr().out
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=10)
