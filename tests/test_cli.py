"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.obs.manifest import blas_threads

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "appendix" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "31.25 kbps" in out
        assert "145.3x" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "valid ids" in capsys.readouterr().err


class TestBlasPin:
    """``python -m repro`` pins BLAS to one thread before numpy loads."""

    @staticmethod
    def _info_threads(**pinned):
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env.update(pinned, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        (line,) = [x for x in out.splitlines() if x.startswith("blas threads:")]
        return line.split(":", 1)[1].strip()

    @pytest.fixture(autouse=True)
    def _needs_openblas(self):
        if blas_threads() is None:
            pytest.skip("numpy does not bundle OpenBLAS here")

    def test_unset_environment_runs_one_thread(self):
        assert self._info_threads() == "1"

    def test_explicit_environment_wins(self):
        assert self._info_threads(OPENBLAS_NUM_THREADS="2") == "2"


class TestImportCost:
    """The CLI's long-running entry points never load scipy.

    scipy is imported inside the few functions that call it; importing it
    at module level cost every ``serve``/``listen``/``simulate`` process
    over a second and tens of MB before any work.
    """

    def test_entry_points_leave_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import repro.stream.engine, repro.gateway.server, repro.sim\n"
            "import repro.__main__\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestListen:
    def test_wideband_decodes_all_scheduled(self, capsys):
        assert (
            main(
                [
                    "listen",
                    "--senders", "1",
                    "--duration", "0.02",
                    "--block-size", "16384",
                    "--seed", "11",
                    "--wideband",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wideband" in out
        assert "scheduled frames delivered" in out
        assert "Msps" in out

    def test_demux_multi_sender(self, capsys):
        assert (
            main(
                [
                    "listen",
                    "--senders", "3",
                    "--duration", "0.02",
                    "--block-size", "16384",
                    "--seed", "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "demux" in out

    def test_metrics_out_round_trips_through_obs_summary(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "listen.jsonl"
        assert (
            main(
                [
                    "listen",
                    "--senders", "1",
                    "--duration", "0.02",
                    "--seed", "11",
                    "--wideband",
                    "--metrics-out", str(out_path),
                    "--trace",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summary", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "listen" in text
        assert "stream.engine.blocks" in text

    def test_rejects_bad_scenario(self, capsys):
        assert (
            main(
                ["listen", "--senders", "1", "--scenario", "the-moon"]
            )
            == 2
        )
        assert "valid names" in capsys.readouterr().err

    def test_rejects_zero_senders(self, capsys):
        assert main(["listen", "--senders", "0"]) == 2
        assert "senders" in capsys.readouterr().err


class TestLiveTelemetry:
    def _listen_with_stream(self, tmp_path, *extra):
        stream_path = tmp_path / "live.jsonl"
        code = main(
            [
                "listen",
                "--senders", "1",
                "--duration", "0.02",
                "--seed", "11",
                "--wideband",
                "--metrics-stream", str(stream_path),
                "--live-interval", "0",
                *extra,
            ]
        )
        return code, stream_path

    def test_metrics_stream_writes_live_jsonl(self, tmp_path, capsys):
        code, stream_path = self._listen_with_stream(tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        assert "live telemetry streamed to" in err
        import json

        records = [
            json.loads(line)
            for line in stream_path.read_text().splitlines()
        ]
        assert records
        assert all(r["type"] == "live" for r in records)
        assert records[-1]["final"] is True

    def test_live_prints_dashboard_lines(self, tmp_path, capsys):
        code, _ = self._listen_with_stream(tmp_path, "--live")
        assert code == 0
        err = capsys.readouterr().err
        assert "Msps" in err
        assert "[final]" in err

    def test_prom_out_written(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code, _ = self._listen_with_stream(
            tmp_path, "--prom-out", str(prom_path)
        )
        assert code == 0
        capsys.readouterr()
        text = prom_path.read_text()
        assert "repro_stream_engine_blocks" in text

    def test_obs_tail_replays_and_once(self, tmp_path, capsys):
        code, stream_path = self._listen_with_stream(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(stream_path)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "Msps" in line]
        assert len(lines) >= 2
        assert lines[-1].endswith("[final]")
        assert main(["obs", "tail", "--once", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("Msps") == 1
        assert "[final]" in out

    def test_obs_tail_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "tail", str(missing)]) == 2
        assert f"error: {missing}" in capsys.readouterr().err

    def test_obs_tail_malformed_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", "tail", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}:1: not valid JSONL" in err

    def test_obs_tail_no_live_records(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"type": "manifest"}\n')
        assert main(["obs", "tail", str(empty)]) == 2
        assert "no live records" in capsys.readouterr().err

    def test_obs_summary_learns_live_schema(self, tmp_path, capsys):
        code, stream_path = self._listen_with_stream(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "live telemetry stream" in out
        assert "stream.engine.samples_in" in out

    def test_rejects_negative_live_interval(self, capsys):
        assert (
            main(
                [
                    "listen",
                    "--senders", "1",
                    "--live",
                    "--live-interval", "-1",
                ]
            )
            == 2
        )
        assert "--live-interval" in capsys.readouterr().err


class TestBenchTrajectory:
    def test_json_report_schema(self, tmp_path, capsys, monkeypatch):
        import json

        (tmp_path / "BENCH_X.json").write_text(
            json.dumps(
                {
                    "streaming": {
                        "effective_msps": 12.5,
                        "x_realtime": 0.625,
                    }
                }
            )
        )
        (tmp_path / "BENCH_SMOKE_LIVE.jsonl").write_text(
            json.dumps(
                {
                    "type": "live",
                    "seq": 0,
                    "elapsed_s": 1.0,
                    "dt_s": 1.0,
                    "final": True,
                    "counters": {},
                    "rates": {"stream.engine.samples_in": 5e6},
                    "gauges": {},
                    "histograms": {},
                }
            )
            + "\n"
        )
        assert (
            main(["bench", "trajectory", "--root", str(tmp_path), "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 2
        (artifact,) = report["artifacts"]
        assert artifact["name"] == "BENCH_X"
        assert artifact["best_streaming"]["effective_msps"] == 12.5
        assert artifact["best_streaming"]["config"] == "streaming"
        assert artifact["throughput"][0]["unit"] == "Msps"
        assert report["gateway"] is None  # no BENCH_GATEWAY.json here
        assert report["sim"] is None  # no BENCH_PR8.json here
        assert report["live"]["samples"] == 1
        assert report["live"]["msps_mean"] == 5.0
        assert report["live"]["final"] is True

    def test_json_report_gateway_and_sim_sections(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_GATEWAY.json").write_text(
            json.dumps(
                {
                    "cpu_count": 2,
                    "serial": {
                        "tenants": 4,
                        "cores_used": 1,
                        "tenants_per_core_at_realtime": 1.28,
                        "effective_msps": 25.6,
                    },
                    "pooled": {
                        "tenants": 4,
                        "cores_used": 2,
                        "tenants_per_core_at_realtime": 0.27,
                        "effective_msps": 10.8,
                    },
                    "gates": {"target_tenants_per_core": 1.0},
                }
            )
        )
        (tmp_path / "BENCH_PR8.json").write_text(
            json.dumps(
                {
                    "packet_fleet": {
                        "nodes": 500,
                        "frames_offered": 113371,
                        "delivery_ratio": 0.9893,
                        "wall_seconds": 6.47,
                        "frames_per_sec": 17525.6,
                    },
                    "fast_path_speedup": 147.2,
                }
            )
        )
        assert (
            main(["bench", "trajectory", "--root", str(tmp_path), "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        gateway = report["gateway"]
        assert gateway["target_tenants_per_core"] == 1.0
        by_config = {row["config"]: row for row in gateway["rows"]}
        assert by_config["serial"]["tenants_per_core_at_realtime"] == 1.28
        assert by_config["pooled"]["cores_used"] == 2
        sim = report["sim"]
        assert sim["fast_path_speedup"] == 147.2
        (fleet,) = sim["rows"]
        assert fleet["config"] == "packet_fleet"
        assert fleet["frames_per_sec"] == 17525.6
        assert fleet["nodes"] == 500

    def test_table_report_gateway_and_sim_sections(
        self, tmp_path, capsys
    ):
        import json

        (tmp_path / "BENCH_GATEWAY.json").write_text(
            json.dumps(
                {
                    "serial": {
                        "tenants": 4,
                        "cores_used": 1,
                        "tenants_per_core_at_realtime": 1.28,
                        "effective_msps": 25.6,
                    },
                    "gates": {"target_tenants_per_core": 1.0},
                }
            )
        )
        (tmp_path / "BENCH_PR8.json").write_text(
            json.dumps(
                {
                    "packet_fleet": {
                        "nodes": 500,
                        "frames_per_sec": 17525.6,
                    }
                }
            )
        )
        assert main(["bench", "trajectory", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gateway capacity" in out
        assert "tenants/core" in out
        assert "fleet simulator" in out
        assert "frames/s" in out

    def test_table_report_trend_shows_blas_threads(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_X.json").write_text(
            json.dumps({"streaming": {"effective_msps": 1.0}})
        )
        old = {
            "recorded_at": "old",
            "cpu_count": 1,
            "serial_msps": 9.86,
            "jobs2_msps": 3.32,
            "jobs4_msps": 2.29,
            "scan_noise_msps": 15.386,
            "gate_applied": False,
        }
        new = {
            "recorded_at": "new",
            "cpu_count": 2,
            "blas_threads": 1,
            "serial_msps": 9.84,
            "scan_noise_msps": 17.895,
        }
        derive = {
            "recorded_at": "derive",
            "cpu_count": 2,
            "blas_threads": 1,
            "serial_msps": 11.0,
            "scan_noise_msps": 24.5,
            "derive_msps": 61.234,
        }
        scan = dict(derive, recorded_at="scan", scan_msps=1745.503)
        bank = dict(scan, recorded_at="bank", frontend_msps=281.776)
        serve = dict(bank, recorded_at="serve", serve_msps=61.527)
        ofdm = dict(serve, recorded_at="ofdm", interference_msps=21.048)
        (tmp_path / "BENCH_SMOKE_TREND.jsonl").write_text(
            "".join(
                json.dumps(e) + "\n"
                for e in (old, new, derive, scan, bank, serve, ofdm)
            )
        )
        assert main(["bench", "trajectory", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "blas threads" in out
        assert "jobs=2" not in out and "jobs=4" not in out
        labels = (
            ["old"], ["new"], ["derive"], ["scan"], ["bank"], ["serve"],
            ["ofdm"],
        )
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
                if line.split()[:1] in labels}
        # Lines recorded before BLAS pinning or before the bank, derive,
        # scan, serve or interference micro-benchmarks still render, with
        # a dash.
        assert rows["old"] == [
            "1", "-", "9.86", "15.39", "-", "-", "-", "-", "-"
        ]
        assert rows["new"] == [
            "2", "1", "9.84", "17.89", "-", "-", "-", "-", "-"
        ]
        assert rows["derive"] == [
            "2", "1", "11.00", "24.50", "-", "61.23", "-", "-", "-"
        ]
        assert rows["scan"] == [
            "2", "1", "11.00", "24.50", "-", "61.23", "1745.50", "-", "-"
        ]
        assert rows["bank"] == [
            "2", "1", "11.00", "24.50", "281.78", "61.23", "1745.50", "-",
            "-",
        ]
        assert rows["serve"] == [
            "2", "1", "11.00", "24.50", "281.78", "61.23", "1745.50",
            "61.53", "-",
        ]
        assert rows["ofdm"] == [
            "2", "1", "11.00", "24.50", "281.78", "61.23", "1745.50",
            "61.53", "21.05",
        ]

    def test_json_empty_root_exits_nonzero(self, tmp_path, capsys):
        assert (
            main(["bench", "trajectory", "--root", str(tmp_path), "--json"])
            == 1
        )
        report_text = capsys.readouterr().out
        import json

        assert json.loads(report_text)["artifacts"] == []

    def test_table_report_mentions_live_stream(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_X.json").write_text(
            json.dumps({"streaming": {"effective_msps": 1.0}})
        )
        (tmp_path / "BENCH_SMOKE_LIVE.jsonl").write_text(
            json.dumps(
                {
                    "type": "live",
                    "elapsed_s": 2.0,
                    "dt_s": 1.0,
                    "final": True,
                    "rates": {"stream.engine.samples_in": 2e6},
                    "counters": {},
                }
            )
            + "\n"
        )
        assert main(["bench", "trajectory", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_SMOKE_LIVE.jsonl" in out
        assert "min/mean/max" in out


class TestSend:
    def test_clean_link_delivers(self, capsys):
        assert (
            main(
                [
                    "send",
                    "--message", "hello transport",
                    "--snr", "8",
                    "--fec", "none",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transport send" in out
        assert "byte-exact" in out
        assert "retransmits" in out

    def test_fault_profile_smoke_with_telemetry(self, tmp_path, capsys):
        out_path = tmp_path / "send.jsonl"
        assert (
            main(
                [
                    "send",
                    "--fault-profile", "burst",
                    "--snr", "2",
                    "--size", "24",
                    "--seed", "3",
                    "--metrics-out", str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summary", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "transport.fragments.sent" in text
        assert "transport.*" in text

    def test_info_lists_transport_namespace(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "transport.*" in out

    def test_rejects_unknown_fault_profile(self, capsys):
        assert main(["send", "--fault-profile", "gremlins"]) == 2
        assert "valid" in capsys.readouterr().err

    def test_rejects_unknown_fec(self, capsys):
        assert main(["send", "--fec", "turbo"]) == 2
        assert "adaptive" in capsys.readouterr().err

    def test_rejects_message_and_size_together(self, capsys):
        assert main(["send", "--message", "x", "--size", "8"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
