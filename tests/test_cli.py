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


class TestErrorPathsLeaveTelemetryOff:
    """A command that fails on a bad flag returns 2 with one ``error:``
    line, and leaves the process-wide registry and tracer disabled."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["listen", "--decimation", "3", "--metrics-out", "P", "--trace"],
            [
                "serve", "--port", "0",
                "--metrics-stream", "P", "--live-interval", "-1",
            ],
            ["simulate", "--duration", "-1", "--metrics-out", "P"],
        ],
        ids=["listen-engine", "serve-live-interval", "simulate-duration"],
    )
    def test_returns_2_with_telemetry_off(self, argv, tmp_path, capsys):
        from repro.obs import REGISTRY, TRACER

        path = str(tmp_path / "telemetry.jsonl")
        assert main([path if arg == "P" else arg for arg in argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not REGISTRY.enabled
        assert not TRACER.enabled

    def test_serve_rejects_zero_live_interval(self, tmp_path, capsys):
        stream = tmp_path / "live.jsonl"
        argv = [
            "serve", "--port", "0",
            "--metrics-stream", str(stream), "--live-interval", "0",
        ]
        assert main(argv) == 2
        assert "--live-interval must be > 0" in capsys.readouterr().err
        assert not stream.exists()


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
