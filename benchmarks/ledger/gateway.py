"""Gateway workload: byte-exact messages through ``python -m repro serve``.

Four tenants, each a seeded capture of 16 scripted Hamming-coded senders
on one ZigBee channel (0.25 s of stream per tenant), are driven by
:func:`repro.gateway.loadgen.drive_client` over one loopback connection
to a ``serve`` subprocess: 16384-sample blocks, round-robin across
tenants, closed loop, tenants re-admitted every pass.

The same stream layers run differently here than in ``idle``/``demux``:
one channel, so no shared ``FastChannelBank``; small blocks, so per-call
overhead dominates; many short-lived sessions; plus the wire codec, the
asyncio server and server-side reassembly.  A change tuned for large
blocks that costs small ones shows up on this workload.

The server lives in another process, so the per-layer split comes from
an in-process :class:`repro.gateway.core.GatewayCore` driven by
:func:`repro.gateway.loadgen.drive_core` over the same workloads and
blocks; ``gateway.wire_s`` is what the wire adds on top of that.  Note
that ``serve`` always enables the metrics registry (it backs
``/metrics``), so the wire path runs the session's metered scan/header
path while the in-process split runs with the registry off.
"""

import re
import signal
import subprocess
import sys
import threading
import time

from repro.gateway.core import GatewayCore
from repro.gateway.loadgen import build_workloads, drive_client, drive_core, verify
from repro.gateway.protocol import (
    GatewayClient,
    decode_block,
    encode_block,
    pack_message,
)
from repro.gateway.tenant import TenantConsumer
from repro.stream.engine import StreamEngine
from repro.transport.streamrx import StreamReassembler

from benchmarks.ledger.common import (
    Outcome,
    digest,
    end_to_end,
    golden,
    median,
    median_metrics,
    passes,
    percentile,
)
from benchmarks.ledger.spans import SpanLedger, recording, timing_calls
from benchmarks.ledger.stream import (
    new_counts,
    stream_layer_metrics,
    stream_patches,
)

TENANTS = 4
SENDERS = 16
CAPTURE_S = 0.25
BLOCK = 16384
ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "mode": "fast",
    "working_dtype": "complex64",
}
_LISTENING = re.compile(r"listening on \S+:(\d+)")
#: Seconds the server gets to drain and exit after SIGTERM.
_STOP_TIMEOUT_S = 30.0


def delivery_identity(workloads):
    """Per-tenant delivered messages minus the wall-clock ``latency_s``."""
    return {
        w.tenant_id: sorted(
            [m["zigbee_channel"], m["msg_id"], m["frag_count"],
             m["duplicates"], m["data"].hex()]
            for m in w.delivered
        )
        for w in workloads
    }


class GatewayWorkload:
    """Four tenants through a ``serve`` subprocess (and in-process core)."""

    name = "gateway"

    def __init__(self, seed, work, size=CAPTURE_S):
        self.seed = int(seed)
        self.work = work
        self.size = float(size)
        self.expected = golden(self.name, self.seed, self.size)
        self.server = None
        self.client = None
        self.workloads = None

    # -- server lifecycle --------------------------------------------------

    def setup(self, t0):
        """Spawn ``serve --port 0``; seconds from spawn to the first welcome."""
        spawned = time.monotonic()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            text=True,
        )
        port = None
        for line in self.server.stderr:
            match = _LISTENING.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise RuntimeError("gateway server exited before listening")
        # Keep the pipe drained so shutdown logging can never block.
        threading.Thread(
            target=self.server.stderr.read, daemon=True
        ).start()
        self.client = GatewayClient("127.0.0.1", port)
        self.client.hello("ledger-setup", ENGINE)
        ready = time.monotonic() - spawned
        self.client.finish("ledger-setup")
        return ready

    def close(self):
        """Say bye, stop the server with SIGTERM and reap it (idempotent)."""
        client, self.client = self.client, None
        try:
            if client is not None:
                with client:
                    client.bye()
        finally:
            self._stop_server()

    def _stop_server(self):
        if self.server is None or self.server.returncode is not None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        if self.server.returncode != 0:
            raise RuntimeError(
                f"gateway server exited with {self.server.returncode}"
            )

    # -- passes ------------------------------------------------------------

    def _build(self):
        self.workloads = build_workloads(
            TENANTS, SENDERS, self.seed, duration_s=self.size,
            engine=ENGINE, dtype="complex64",
        )

    def _fresh(self):
        for workload in self.workloads:
            workload.delivered = []
            workload.shed_blocks = 0
        return self.workloads

    def _samples(self):
        return sum(w.samples.size for w in self.workloads)

    def _score(self, outcome, reference):
        rows, _ = verify(self.workloads)
        outcome.check(
            sum(row["expected"] for row in rows),
            sum(row["expected"] - row["matched"] for row in rows),
            "expected messages not delivered byte-exact",
        )
        outcome.check(0, sum(row["delivered"] - row["matched"] for row in rows),
                      "delivered messages not expected")
        outcome.check(0, sum(row["shed_blocks"] for row in rows),
                      "blocks shed")
        pass_digest = digest(delivery_identity(self.workloads))
        wanted = reference.setdefault("digest", self.expected or pass_digest)
        outcome.check(0, int(pass_digest != wanted),
                      "delivery identity digest mismatches", wrong=True)

    def _wire_pass(self):
        return drive_client(self.client, self._fresh(), block_size=BLOCK)

    def _server_peak_mb(self):
        """The server's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in the server's /proc status")

    def _core_pass(self):
        with GatewayCore(engine=ENGINE, max_tenants=TENANTS) as core:
            return drive_core(core, self._fresh(), block_size=BLOCK)

    def _codec_pass(self):
        """Encode, pack and decode every block the way the wire does."""
        clock = time.perf_counter
        sent = 0
        started = clock()
        for workload in self.workloads:
            samples = workload.samples
            for lo in range(0, samples.size, BLOCK):
                fields, payload = encode_block(samples[lo : lo + BLOCK])
                header = {"type": "samples", "tenant": workload.tenant_id,
                          **fields}
                sent += len(pack_message(header, payload))
                decode_block(header, payload)
        return clock() - started, sent

    # -- entry points ------------------------------------------------------

    def measure(self, seconds):
        """Wire run: end-to-end metrics (the server's peak RSS included).

        Peak RSS is read after the first pass: the server's heap then
        creeps up ~6 MB at a time, at moments that vary from run to run
        (118 MB after one pass, 160-177 MB after twelve, 195 MB after
        forty-five), so a later reading measures when the steps fell.
        """
        self._build()
        outcome = Outcome()
        reference = {}
        walls, latencies, requests = [], [], []
        send = self.client.send_samples

        def timed_send(tenant, samples):
            started = time.perf_counter()
            response = send(tenant, samples)
            requests.append((0.0, time.perf_counter() - started))
            return response

        self.client.send_samples = timed_send
        for index, factor in passes(seconds, probe=True):
            walls.append((self._wire_pass(), factor))
            if index == 0:
                peak_rss_mb = self._server_peak_mb()
            latencies.append((list(requests), factor))
            requests.clear()
            self._score(outcome, reference)
        self.close()
        metrics, raw, factor = end_to_end(self._samples(), walls, latencies)
        for values in (metrics, raw):
            values["peak_rss_mb"] = peak_rss_mb
        info = {
            "wire_passes": len(walls),
            "latency_samples": sum(len(s) for s, _ in latencies),
            "latency_kind": "samples request round trip",
            "expected_messages": sum(len(w.expected) for w in self.workloads),
            "digest": reference.get("digest"),
        }
        return outcome.result(
            metrics, info, raw_metrics=raw, speed_factor=factor
        )

    def trace(self, seconds, setup_ledger=None):
        """Wire, untraced in-process and traced in-process passes, interleaved."""
        self._build()
        outcome = Outcome()
        reference = {}
        wire, untraced, traced, blocks, per_pass = [], [], [], [], []
        for index, _ in passes(seconds, minimum=3):
            if index % 3 == 0:
                wire.append(self._wire_pass())
            elif index % 3 == 1:
                with timing_calls(StreamEngine, "process_block", blocks):
                    untraced.append(self._core_pass())
            else:
                ledger, counts = SpanLedger(), new_counts()
                with recording(ledger, self._patches(counts)):
                    traced.append(self._core_pass())
                    codec_s, sent = self._codec_pass()
                metrics = stream_layer_metrics(ledger, counts)
                metrics.update(
                    {
                        "transport.streamrx.push_s":
                            ledger.total("transport.streamrx.push"),
                        "transport.streamrx.fragments_accepted":
                            counts["fragments_accepted"],
                        "transport.streamrx.messages_completed":
                            counts["messages_completed"],
                        "gateway.tenant.self_s": ledger.total("gateway.tenant"),
                        "gateway.core.self_s": ledger.total("gateway.core"),
                        "gateway.core.blocks_shed": sum(
                            w.shed_blocks for w in self.workloads
                        ),
                        "gateway.protocol.codec_s": codec_s,
                        "gateway.protocol.bytes_out": sent,
                    }
                )
                per_pass.append(metrics)
            self._score(outcome, reference)
        self.close()
        metrics = median_metrics(per_pass)
        metrics["stream.engine.block_p50_ms"] = 1e3 * percentile(blocks, 50)
        metrics["stream.engine.block_p99_ms"] = 1e3 * percentile(blocks, 99)
        metrics["gateway.wire_s"] = median(wire) - median(untraced)
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
        info = {
            "wire_passes": len(wire),
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "block_samples": len(blocks),
        }
        return outcome.result(metrics, info)

    @staticmethod
    def _patches(counts):
        def tenant_finished(_args, result):
            reassembly = result["reassembly"]
            counts["fragments_accepted"] += reassembly["fragments_accepted"]
            counts["messages_completed"] += reassembly["messages_completed"]

        core_calls = ("admit", "submit", "poll", "finish_tenant")
        return [
            *stream_patches(counts),
            (StreamReassembler, "push", "transport.streamrx.push"),
            (TenantConsumer, "process", "gateway.tenant"),
            (TenantConsumer, "finish", "gateway.tenant", tenant_finished),
            *[(GatewayCore, call, "gateway.core") for call in core_calls],
        ]
