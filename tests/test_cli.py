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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--metrics-interval", "0"], "--metrics-interval: must be positive"),
            (["--metrics-interval", "-1"], "--metrics-interval: must be positive"),
            (["--sync-interval", "0"], "--sync-interval: must be positive"),
            (["--snapshot-every", "-1"], "--snapshot-every: must be non-negative"),
        ],
    )
    def test_serve_bad_number_is_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--data-dir", "/tmp/x", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro serve")
        assert message in err

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

    def test_client_end_to_end_against_live_server(
        self, series_file, tmp_path, capsys, monkeypatch
    ):
        """`repro client ingest/timeline/stats` against a real server."""
        import asyncio
        import threading

        from repro.serve import (
            BatchRejectedError,
            FenrirServer,
            ServeClient,
            ServeConfig,
        )

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
            assert capsys.readouterr().out == (
                "2025-01-01T00:00:00 change=0.00 mode=0 new mode\n"
                "2025-01-06T00:00:00 change=0.50 mode=1 new mode event\n"
                "ingested 10 rounds into 'svc'\n"
            )

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

            # Failures are one stderr line and exit status 1.
            assert main([*base, "query", "ghost"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: no_such_monitor: no such monitor: 'ghost'\n"

            # Every round is older than the monitor's last one.
            assert main([*base, "ingest", "svc", str(series_file)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: out_of_order: round 0: ")

            # A rejection partway prints the applied rounds' updates first.
            applied = [{
                "time": "2025-01-11T00:00:00", "step_change": 0.5,
                "is_event": True, "mode_id": 0, "is_new_mode": False,
                "mode_similarity": 1.0, "recurred": True,
            }]

            def reject_after_one(self, monitor, rounds, batch_size):
                rejection = {"error": "out_of_order", "message": "too old"}
                raise BatchRejectedError(
                    "out_of_order", "too old", rejection, index=1, applied=applied
                )

            with monkeypatch.context() as patch:
                patch.setattr(ServeClient, "ingest_many", reject_after_one)
                assert main([*base, "ingest", "svc", str(series_file)]) == 1
            captured = capsys.readouterr()
            assert captured.out == (
                "2025-01-11T00:00:00 change=0.50 mode=0 recurrence event\n"
            )
            assert captured.err == "error: out_of_order: round 1: too old\n"
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=10)

        # The server is gone: a refused connection is one line too.
        assert main([*base, "stats"]) == 1
        assert capsys.readouterr().err.startswith("error: ConnectionRefusedError: ")

    def test_client_ingest_sizes_batches_under_the_frame_cap(self, tmp_path, capsys):
        """128 rounds of this series would be a ~5 MB frame; the CLI
        sends fewer per request and the whole series lands."""
        from test_serve_server import ServerThread

        from repro.cli import _ingest_batch_size
        from repro.serve import ServeConfig, protocol

        networks = [f"n{index}-" + "x" * 5000 for index in range(8)]
        series = VectorSeries(networks, StateCatalog())
        t0 = datetime(2025, 1, 1)
        for hour in range(130):
            state = "LAX" if hour % 20 < 10 else "AMS"
            series.append_mapping(
                {name: state for name in networks}, t0 + timedelta(hours=hour)
            )
        path = tmp_path / "wide.jsonl"
        with path.open("w") as stream:
            write_series_jsonl(series, stream)

        batch_size = _ingest_batch_size(series, "wide")
        assert batch_size < 128
        request = {
            "cmd": "ingest_batch",
            "id": 1,
            "monitor": "wide",
            "rounds": [
                {"time": vector.time.isoformat(), "states": vector.to_mapping()}
                for vector in list(series)[:batch_size]
            ],
        }
        assert len(protocol.encode_payload(request)) <= protocol.MAX_FRAME

        with ServerThread(ServeConfig(data_dir=tmp_path / "data", port=0)) as running:
            host, port = running.address
            argv = ["client", "--host", host, "--port", str(port)]
            assert main([*argv, "ingest", "wide", str(path), "--create"]) == 0
            assert capsys.readouterr().out.endswith("ingested 130 rounds into 'wide'\n")
            assert main([*argv, "query", "wide"]) == 0
            assert '"rounds": 130' in capsys.readouterr().out

    def test_ingest_batch_size_is_128_for_small_rounds(self, series_file):
        from repro.cli import _ingest_batch_size, _load_series

        assert _ingest_batch_size(_load_series(series_file), "svc") == 128
