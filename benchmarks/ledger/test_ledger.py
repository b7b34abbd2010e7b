"""Self-test of the perf ledger (``PYTHONPATH=src pytest benchmarks/ledger -q``).

The command line runs once for real on ``idle`` (full-size input, one
measured second) so the printed metric set, units, thread pinning and
the final JSON line are checked end to end; the other workloads run
in-process on tiny inputs through the workloads' size arguments.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

from benchmarks.ledger.common import benchmark_spec, per_layer_names
from benchmarks.ledger.spans import SpanLedger, recording

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = benchmark_spec()


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )


def _printed(stdout):
    """``{metric: unit}`` from the ``workload metric value unit`` lines."""
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and not line.startswith("#"):
            float(parts[2])
            printed[parts[1]] = parts[3]
    return printed


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_with_its_unit(trace):
    proc = _cli("--workload", "idle", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    printed = _printed(proc.stdout)
    for metric in wanted:
        assert printed.get(metric["name"]) == metric["unit"], metric
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert set(summary["metrics"]) == {m["name"] for m in wanted}
    assert "blas_threads=1 " in proc.stdout
    assert not (ROOT / ".ledger_work").exists()


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc = _cli("--workload", "idle", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - started < 180


def test_span_ledger_self_time():
    # Exit order: a (depth 2) closes inside A, A and B inside P.
    records = [
        {"name": "a", "depth": 2, "duration_s": 1.0},
        {"name": "A", "depth": 1, "duration_s": 3.0},
        {"name": "B", "depth": 1, "duration_s": 2.0},
        {"name": "P", "depth": 0, "duration_s": 10.0},
        {"name": "A", "depth": 0, "duration_s": 4.0},
    ]
    ledger = SpanLedger()
    ledger.feed(records[:2])  # the fold survives a drain mid-stream
    ledger.feed(records[2:])
    assert ledger.self_s == {"a": 1.0, "A": 2.0 + 4.0, "B": 2.0, "P": 5.0}
    assert ledger.total("A", "B") == 8.0


def test_recording_restores_the_program():
    from repro.stream.engine import StreamEngine

    original = StreamEngine.process_block
    ledger = SpanLedger()
    with recording(ledger, [(StreamEngine, "process_block", "x")]):
        assert StreamEngine.process_block is not original
        assert TRACER.enabled
    assert StreamEngine.process_block is original
    assert not TRACER.enabled and not REGISTRY.enabled


def _assert_clean(result, metrics):
    assert result["problems"] == [] and result["failed"] == 0, result
    assert set(result["metrics"]) == set(metrics)
    assert TRACER.dropped == 0 and not REGISTRY.enabled


def _e2e(*extra):
    return {"throughput", "latency_p50_ms", "latency_p90_ms", *extra}


@pytest.mark.parametrize("name", ["idle", "demux"])
def test_stream_workloads_on_tiny_inputs(name, tmp_path):
    from benchmarks.ledger.stream import (
        StreamWorkload,
        frame_identity,
        new_counts,
        stream_patches,
    )

    workload = StreamWorkload(name, 11, tmp_path, size=400_000)
    workload.build_inputs()
    workload.setup(time.monotonic())
    _assert_clean(workload.measure(0.2), _e2e())
    traced = workload.trace(0.2)
    assert traced["metrics"]["stream.frontend.bank_s"] > 0
    assert traced["metrics"]["stream.session.scan_s"] > 0
    layers = set(per_layer_names())
    assert set(traced["metrics"]) <= layers
    _assert_clean(traced, traced["metrics"])

    # Tracing must not switch the code path: identical frames.
    _, untraced_frames = workload._closed_pass()
    with recording(SpanLedger(), stream_patches(new_counts())):
        _, traced_frames = workload._closed_pass()
    assert frame_identity(traced_frames) == frame_identity(untraced_frames)
    if name == "demux":
        assert any(f.crc_ok for f in untraced_frames)


def test_render_replaces_captures_the_receiver_errs_on():
    from benchmarks.ledger.stream import (
        SAMPLES,
        decode,
        receiver_errors,
        render,
        screened_draws,
    )

    # Seed 5's first qualifying draw for demux capture 0 (draw 1) holds
    # a frame the receiver misses.
    known_bad = screened_draws("demux", 5, SAMPLES)
    assert 1 in known_bad[0]
    assert screened_draws("demux", 5, 400_000) is None
    bad, truth, _ = render("demux", 5, 0, SAMPLES, known_bad=())
    assert receiver_errors(decode(bad), truth) != (0, 0)
    samples, truth, replaced = render("demux", 5, 0, SAMPLES,
                                      known_bad=known_bad[0])
    assert replaced == [1]
    assert receiver_errors(decode(samples), truth) == (0, 0)


def test_gateway_workload_on_tiny_inputs(tmp_path):
    from benchmarks.ledger.gateway import GatewayWorkload

    measured = GatewayWorkload(3, tmp_path, size=0.08)
    try:
        assert measured.setup(time.monotonic()) > 0
        result = measured.measure(0.2)
    finally:
        measured.close()
    _assert_clean(result, _e2e("peak_rss_mb"))
    assert result["metrics"]["peak_rss_mb"] > 0
    assert measured.server.returncode == 0

    traced = GatewayWorkload(3, tmp_path, size=0.08)
    try:
        traced.setup(time.monotonic())
        result = traced.trace(0.2)
    finally:
        traced.close()
    _assert_clean(result, result["metrics"])
    for layer in ("stream.frontend.channelizer_s", "gateway.core.self_s",
                  "transport.streamrx.push_s", "gateway.protocol.codec_s"):
        assert result["metrics"][layer] > 0, layer
    assert result["metrics"]["transport.streamrx.messages_completed"] > 0


def test_fleet_workload_on_tiny_inputs(tmp_path):
    from benchmarks.ledger.fleet import FleetWorkload

    workload = FleetWorkload(3, tmp_path, size=2.0)
    setup_ledger = SpanLedger()
    with recording(setup_ledger):
        workload.setup(time.monotonic())
    _assert_clean(workload.measure(0.1), _e2e())
    traced = workload.trace(0.1, setup_ledger)
    _assert_clean(traced, traced["metrics"])
    for layer in ("core.link.front_end_s", "sim.comm.deliver_s",
                  "sim.scheduler.self_s"):
        assert traced["metrics"][layer] > 0, layer
