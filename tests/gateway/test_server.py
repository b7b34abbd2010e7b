"""GatewayServer: wire round-trips, error contract, /metrics, shutdown."""

import asyncio
import json
import logging
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.gateway.core import GatewayCore
from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_DECODE_FAILED,
    ERR_TENANT_LIMIT,
    ERR_UNKNOWN_TENANT,
    GatewayError,
)
from repro.gateway.loadgen import (
    build_workloads,
    drive_client,
    drive_core,
    verify,
)
from repro.gateway.protocol import (
    MAX_PAYLOAD_BYTES,
    GatewayClient,
    _parse_header,
    _parse_prefix,
    encode_block,
    pack_message,
)
from repro.gateway.server import GatewayServer
from repro.gateway.tenant import TenantConsumer
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine

FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "working_dtype": "complex64",
}


class _ServerHarness:
    """Run one GatewayServer on an asyncio loop in a daemon thread."""

    def __init__(self, core, metrics=True):
        self.server = GatewayServer(
            core, port=0, metrics_port=0 if metrics else None
        )
        #: Exceptions that escaped to the event loop's handler.
        self.loop_errors = []
        #: An exception that ended the server's run (shutdown included).
        self.run_error = None
        self._loop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("gateway server did not start")

    def _run(self):
        async def main():
            await self.server.run(
                install_signal_handlers=False, on_started=self._on_started
            )

        try:
            asyncio.run(main())
        except BaseException as error:
            self.run_error = error

    def _on_started(self, server):
        self._loop = asyncio.get_running_loop()
        self._loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )
        self._started.set()

    def wait_active(self, count, timeout_s=10.0):
        """Wait until the core holds ``count`` active tenants."""
        deadline = time.monotonic() + timeout_s
        while self.server.core.stats()["active_tenants"] != count:
            assert time.monotonic() < deadline, "active tenants never settled"
            time.sleep(0.01)

    def stop(self):
        self._loop.call_soon_threadsafe(self.server._stop_event.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()

    def client(self):
        return GatewayClient("127.0.0.1", self.server.port, connect_wait_s=5)


@pytest.fixture()
def harness():
    REGISTRY.enable()
    REGISTRY.reset()
    h = _ServerHarness(GatewayCore(engine=FAST_ENGINE, max_tenants=4))
    try:
        yield h
    finally:
        h.stop()
        REGISTRY.disable()
        REGISTRY.reset()


@pytest.mark.timeout(300)
class TestWireService:
    def test_full_session_round_trip(self, harness):
        (workload,) = build_workloads(
            1, 2, seed=11, duration_s=0.02,
            engine=FAST_ENGINE, dtype="complex64",
        )
        with harness.client() as client:
            drive_client(client, [workload])
            stats = client.stats(workload.tenant_id)
            assert stats["finished"]
            assert client.bye() == {"type": "goodbye"}
        rows, all_exact = verify([workload])
        assert all_exact, rows
        assert rows[0]["matched"] == rows[0]["expected"] > 0

    def test_welcome_echoes_admission_info(self, harness):
        with harness.client() as client:
            welcome = client.hello("t0")
            assert welcome["type"] == "welcome"
            assert welcome["tenant"] == "t0"
            assert welcome["sample_rate"] == 20e6
            assert "jobs" not in welcome

    def test_gateway_error_keeps_connection_usable(self, harness):
        with harness.client() as client:
            with pytest.raises(GatewayError) as excinfo:
                client.poll("never-admitted")
            assert excinfo.value.code == ERR_UNKNOWN_TENANT
            # The same connection still serves the next request.
            assert client.hello("t1")["type"] == "welcome"

    def test_malformed_request_is_bad_request_and_drop(self, harness):
        with harness.client() as client:
            client._sock.sendall(pack_message({"type": "no-such-verb"}))
            with pytest.raises(GatewayError) as excinfo:
                client.request({"type": "poll", "tenant": "x"})
            assert excinfo.value.code == "bad-request"

    def test_samples_response_reports_admission(self, harness):
        with harness.client() as client:
            client.hello("t2")
            response = client.send_samples(
                "t2", np.zeros(128, dtype=np.complex64)
            )
            assert response == {"type": "accepted"}
            assert client.stats("t2")["blocks_in"] == 1

    def test_server_stats_cover_the_fleet(self, harness):
        with harness.client() as client:
            client.hello("a")
            client.hello("b")
            stats = client.stats()
            assert stats["active_tenants"] == 2
            assert set(stats["tenants"]) == {"a", "b"}


@pytest.mark.timeout(300)
class TestMalformedHeaders:
    """Wrong-typed header fields are the client's error, not the server's.

    Each must end in a ``bad-request`` refusal (never ``internal``) and
    leave no tenant registered.
    """

    @pytest.mark.parametrize(
        "header",
        [
            {"type": "stats", "tenant": ["x"]},
            {"type": "hello", "tenant": "a", "engine": 5},
            {"type": "hello", "tenant": "b", "engine": {"bogus": 1}},
            {
                "type": "hello",
                "tenant": "c",
                "engine": {"demux": True, "decimation": 3},
            },
            {"type": "hello", "tenant": "d", "engine": {"ntaps": 1000001}},
            {"type": "hello", "tenant": "e", "engine": {"mode": "exact"}},
            {
                "type": "hello",
                "tenant": "g",
                "engine": {"capture_tau": 10**9},
            },
        ],
        ids=[
            "list-tenant",
            "int-engine",
            "unknown-kwarg",
            "bad-decimation",
            "huge-ntaps",
            "exact-mode",
            "retired-capture-tau",
        ],
    )
    def test_refused_as_bad_request(self, harness, header):
        with harness.client() as client:
            with pytest.raises(GatewayError) as excinfo:
                client.request(header)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert harness.server.core.tenant_ids() == []

    def test_the_one_kernel_mode_is_admitted(self, harness):
        # "fast" names the one front end, so a hello that still sends it
        # is admitted; any other mode was refused above.
        with harness.client() as client:
            assert client.hello("f", engine={"mode": "fast"})["type"] == "welcome"
        assert harness.server.core.tenant_ids() == ["f"]

    def test_bool_count_refused_as_bad_request(self, harness):
        with harness.client() as client:
            client.hello("t")
            with pytest.raises(GatewayError) as excinfo:
                client.request(
                    {
                        "type": "samples",
                        "tenant": "t",
                        "dtype": "complex64",
                        "count": True,
                    },
                    np.zeros(1, dtype=np.complex64).tobytes(),
                )
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert harness.server.core.tenant_stats("t")["blocks_in"] == 0

    def test_bad_engine_keeps_connection_usable(self, harness):
        # Engine construction errors are refusals, like a full gateway:
        # the connection survives them.
        with harness.client() as client:
            with pytest.raises(GatewayError) as excinfo:
                client.hello("a", engine={"bogus": 1})
            assert excinfo.value.code == ERR_BAD_REQUEST
            assert client.hello("a")["type"] == "welcome"
        assert harness.server.core.tenant_ids() == ["a"]


def _recv_exactly(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "connection closed mid-frame"
        data += chunk
    return data


def _response(sock):
    """Read one response frame's header off a raw socket."""
    header_len, payload_len = _parse_prefix(_recv_exactly(sock, 8))
    header = _parse_header(_recv_exactly(sock, header_len))
    _recv_exactly(sock, payload_len)
    return header


@pytest.mark.timeout(300)
class TestSlowAndVanishingClients:
    @pytest.mark.parametrize("cut", [3, 20, 200], ids=[
        "mid-prefix", "mid-header", "mid-payload",
    ])
    def test_partial_frame_then_close(self, harness, cut):
        fields, payload = encode_block(np.zeros(64, dtype=np.complex64))
        frame = pack_message({"type": "samples", "tenant": "p", **fields},
                             payload)
        raw = socket.create_connection(("127.0.0.1", harness.server.port))
        raw.sendall(frame[:cut])
        raw.close()
        # The server shrugs it off and keeps serving.
        with harness.client() as client:
            assert client.hello("after")["type"] == "welcome"
            assert client.stats()["active_tenants"] == 1
        assert harness.loop_errors == []

    def test_vanished_tenant_is_released(self, harness):
        with harness.client() as keeper:
            keeper.hello("keep")
            # More vanishing clients than tenant slots: none may lock
            # the gateway out or keep the id.
            for _ in range(harness.server.core.max_tenants + 1):
                client = harness.client()
                assert client.hello("v")["type"] == "welcome"
                client.send_samples("v", np.zeros(256, dtype=np.complex64))
                assert keeper.stats()["active_tenants"] == 2
                client.close()  # no finish, no bye
                harness.wait_active(1)
            with harness.client() as client:
                assert client.hello("v")["type"] == "welcome"
                assert client.stats()["active_tenants"] == 2
        counters = REGISTRY.snapshot()["counters"]
        assert (
            counters["gateway.tenants_abandoned"]
            == harness.server.core.max_tenants + 1
        )
        assert harness.loop_errors == []

    def test_finished_then_readmitted_elsewhere_is_not_abandoned(
        self, harness
    ):
        # Abandoning is per admission: a connection that finished its
        # tenant must not finish the next holder of the id on close.
        first = harness.client()
        first.hello("id")
        first.finish("id")
        with harness.client() as second:
            second.hello("id")
            first.close()
            time.sleep(0.2)
            assert second.stats("id")["finished"] is False
            assert second.stats()["active_tenants"] == 1

    def test_dribbling_client_does_not_stall_others(self, harness):
        (workload,) = build_workloads(
            1, 2, seed=11, duration_s=0.02,
            engine=FAST_ENGINE, dtype="complex64",
        )
        with harness.client() as slow:
            slow.hello("slow")
            fields, payload = encode_block(
                np.zeros(512, dtype=np.complex64)
            )
            frame = pack_message(
                {"type": "samples", "tenant": "slow", **fields}, payload
            )
            half = len(frame) // 2
            for i in range(half):
                slow._sock.sendall(frame[i : i + 1])
            # Another tenant's whole session runs while the slow frame
            # sits half-sent.
            with harness.client() as fast:
                drive_client(fast, [workload])
            rows, all_exact = verify([workload])
            assert all_exact, rows
            assert rows[0]["matched"] == rows[0]["expected"] > 0
            for i in range(half, len(frame)):
                slow._sock.sendall(frame[i : i + 1])
            assert _response(slow._sock) == {"type": "accepted"}
            assert slow.stats("slow")["blocks_in"] == 1
        assert harness.loop_errors == []


def _vm_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


@pytest.mark.timeout(300)
class TestZeroCopyWire:
    def test_pipelined_requests_answered_in_order(self, harness):
        with socket.create_connection(
            ("127.0.0.1", harness.server.port), timeout=30
        ) as raw:
            raw.sendall(
                pack_message({"type": "stats"}) + pack_message({"type": "bye"})
            )
            assert _response(raw)["type"] == "stats"
            assert _response(raw) == {"type": "goodbye"}
            assert raw.recv(1) == b""
        assert harness.loop_errors == []

    def test_announced_unsent_payloads_commit_no_memory(self, harness):
        # Eight connections each announce a maximal payload and send
        # 1 KiB of it.  A payload buffer that commits memory up front
        # (a zero-filled bytearray) would add 512 MB.
        socks = [
            socket.create_connection(
                ("127.0.0.1", harness.server.port), timeout=30
            )
            for _ in range(8)
        ]
        try:
            tenants = harness.server.core.max_tenants
            for index, sock in enumerate(socks[:tenants]):
                sock.sendall(
                    pack_message({"type": "hello", "tenant": f"big{index}"})
                )
                assert _response(sock)["type"] == "welcome"
            before_mb = _vm_rss_mb()
            for index, sock in enumerate(socks):
                header = json.dumps(
                    {
                        "type": "samples",
                        "tenant": f"big{index}",
                        "dtype": "complex64",
                        "count": MAX_PAYLOAD_BYTES // 8,
                    }
                ).encode()
                head = struct.pack("!II", len(header), MAX_PAYLOAD_BYTES)
                start = head + header
                sock.sendall(start + b"\0" * (1024 - len(start)))
            # A later connection's round trip: the server has read the
            # eight announcements first.
            with harness.client() as client:
                assert client.stats()["active_tenants"] == tenants
            assert _vm_rss_mb() - before_mb < 8.0
            # Closing mid-payload is today's mid-frame drop.
            for sock in socks:
                sock.shutdown(socket.SHUT_WR)
                reply = _response(sock)
                assert reply["code"] == ERR_BAD_REQUEST
                assert "mid-frame" in reply["message"]
                assert sock.recv(1) == b""
        finally:
            for sock in socks:
                sock.close()
        harness.wait_active(0)
        counters = REGISTRY.snapshot()["counters"]
        assert counters["gateway.tenants_abandoned"] == tenants
        assert harness.loop_errors == []

    def test_payload_buffers_are_not_reused(self, harness, monkeypatch):
        # The tenant may hold a block past the next frame, and the
        # block is a view of the frame's payload buffer.
        core = harness.server.core
        submitted = []
        submit = core.submit

        def record(tenant, block):
            submitted.append(block)
            return submit(tenant, block)

        monkeypatch.setattr(core, "submit", record)
        first = np.arange(4096, dtype=np.complex64)
        second = -first
        with harness.client() as client:
            client.hello("r")
            client.send_samples("r", first)
            client.send_samples("r", second)
        kept, latest = submitted
        assert not np.shares_memory(kept, latest)
        np.testing.assert_array_equal(kept, first)
        np.testing.assert_array_equal(latest, second)


@pytest.mark.timeout(300)
class TestHeldBlockBound:
    def test_two_connections_leave_one_block_held(
        self, harness, monkeypatch
    ):
        # With the pump switched off, only the held-slot rule decodes:
        # however two connections interleave samples for one tenant,
        # it never holds more than one undecoded block.
        core = harness.server.core
        monkeypatch.setattr(core, "pump", lambda: None)
        decoded = []
        process = TenantConsumer.process

        def counted(consumer, block):
            decoded.append(block.size)
            return process(consumer, block)

        monkeypatch.setattr(TenantConsumer, "process", counted)
        with harness.client() as first, harness.client() as second:
            first.hello("shared")
            sizes = [256, 512, 768, 1024, 1280, 1536]
            for index, size in enumerate(sizes):
                client = (first, second)[index % 2]
                reply = client.send_samples(
                    "shared", np.zeros(size, dtype=np.complex64)
                )
                assert reply["type"] == "accepted"
                blocks_in = client.stats("shared")["blocks_in"]
                assert blocks_in == index + 1
                assert blocks_in - len(decoded) == 1
            assert decoded == sizes[:-1]
            second.finish("shared")
        assert decoded == sizes
        assert harness.loop_errors == []


@pytest.mark.timeout(300)
class TestMetricsEndpoint:
    def test_scrape_has_gateway_metrics(self, harness):
        with harness.client() as client:
            client.hello("m0")
            client.send_samples("m0", np.zeros(256, dtype=np.complex64))
        url = f"http://127.0.0.1:{harness.server.metrics_port}/metrics"
        body = urllib.request.urlopen(url, timeout=10).read().decode()
        assert "repro_gateway_tenants_admitted" in body
        assert "repro_gateway_connections" in body

    def test_other_paths_404(self, harness):
        url = f"http://127.0.0.1:{harness.server.metrics_port}/nope"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10)
        assert excinfo.value.code == 404


@pytest.mark.timeout(300)
class TestGracefulShutdown:
    def test_stop_drains_active_tenants(self):
        REGISTRY.enable()
        REGISTRY.reset()
        core = GatewayCore(engine=FAST_ENGINE)
        harness = _ServerHarness(core, metrics=False)
        try:
            with harness.client() as client:
                client.hello("t")
                client.send_samples("t", np.zeros(4096, dtype=np.complex64))
        finally:
            harness.stop()
            REGISTRY.disable()
            REGISTRY.reset()
        # The drain finished the still-active tenant and closed the core.
        assert core._tenants["t"].finished
        assert core._closed


def _identity(messages):
    """Delivered messages in order, minus the wall-clock ``latency_s``."""
    return [
        sorted((k, v) for k, v in m.items() if k != "latency_s")
        for m in messages
    ]


def _recording_polls(target, polls):
    """Wrap ``target.poll`` to log each poll's tenant and messages."""
    poll = target.poll

    def recorded(tenant):
        messages = poll(tenant)
        polls.append((tenant, _identity(messages)))
        return messages

    target.poll = recorded


@pytest.mark.timeout(300)
class TestWireMatchesCore:
    def test_same_deliveries_at_every_poll(self, harness):
        # Decoding behind the reply must never hold a message back past
        # the connection's next request: over the wire, every poll
        # returns exactly what the in-process drive's poll returns.
        workloads = build_workloads(
            4, 2, seed=11, duration_s=0.02,
            engine=FAST_ENGINE, dtype="complex64",
        )
        runs = []
        for wire in (True, False):
            for workload in workloads:
                workload.delivered = []
                workload.shed_blocks = 0
            polls = []
            if wire:
                with harness.client() as client:
                    _recording_polls(client, polls)
                    drive_client(client, workloads)
            else:
                with GatewayCore(engine=FAST_ENGINE, max_tenants=4) as core:
                    _recording_polls(core, polls)
                    drive_core(core, workloads)
            delivered = {
                w.tenant_id: _identity(w.delivered) for w in workloads
            }
            runs.append((polls, delivered))
            rows, all_exact = verify(workloads)
            assert all_exact, rows
        (wire_polls, wire_delivered), (core_polls, core_delivered) = runs
        assert wire_delivered == core_delivered
        assert wire_polls == core_polls
        # Not vacuous: messages arrive by poll, mid-stream.
        assert sum(len(messages) for _, messages in wire_polls) > 0
        assert harness.loop_errors == []


#: The gateway counters compared between the wire and in-process drives
#: (besides every ``decoder.*`` and ``stream.session.*`` instrument).
_DECODE_COUNTERS = (
    "gateway.frames_decoded",
    "gateway.fragments_accepted",
    "gateway.messages_delivered",
)


def _decode_metrics(snapshot):
    """The snapshot's decode instruments: no wall-clock one among them."""
    def decode(name):
        return name.startswith(("decoder.", "stream.session.")) or (
            name in _DECODE_COUNTERS
        )

    return {
        kind: {k: v for k, v in snapshot[kind].items() if decode(k)}
        for kind in ("counters", "histograms")
    }


@pytest.mark.timeout(300)
class TestWireMetersLikeCore:
    def test_same_decode_metrics(self, harness):
        # The natively binned histograms and the per-push counters reach
        # the registry the same way whether a block came over the wire
        # or from an in-process drive.
        workloads = build_workloads(
            2, 2, seed=11, duration_s=0.02,
            engine=FAST_ENGINE, dtype="complex64",
        )
        snapshots = []
        for wire in (True, False):
            for workload in workloads:
                workload.delivered = []
            REGISTRY.reset()
            if wire:
                with harness.client() as client:
                    drive_client(client, workloads)
            else:
                with GatewayCore(engine=FAST_ENGINE, max_tenants=2) as core:
                    drive_core(core, workloads)
            snapshots.append(_decode_metrics(REGISTRY.snapshot()))
        wire_metrics, core_metrics = snapshots
        assert wire_metrics == core_metrics
        counters = wire_metrics["counters"]
        histograms = wire_metrics["histograms"]
        assert counters["gateway.messages_delivered"] > 0
        assert counters["decoder.bits_decoded"] == (
            histograms["decoder.vote_margin"]["count"]
        ) > 0
        assert histograms["decoder.phase_run_length"]["count"] > 0
        assert histograms["stream.session.frame_latency"]["count"] == (
            counters["stream.session.frames"]
        )
        assert harness.loop_errors == []


def _boom(*args, **kwargs):
    raise RuntimeError("decoder bug")


@pytest.fixture()
def one_slot(monkeypatch, caplog):
    """A one-tenant server, its decode-failure log records and counters."""
    # A CLI run in this process may have stopped ``repro`` log records
    # from reaching caplog's root handler (obs.configure_logging).
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    caplog.set_level(logging.ERROR, logger="repro.gateway")
    REGISTRY.enable()
    REGISTRY.reset()
    harness = _ServerHarness(
        GatewayCore(engine=FAST_ENGINE, max_tenants=1), metrics=False
    )
    try:
        yield harness
    finally:
        if harness._thread.is_alive():
            harness.stop()
        REGISTRY.disable()
        REGISTRY.reset()


def _failures(caplog):
    """The error records logged, each checked to be a decoder failure."""
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert all("decoder failed" in r.getMessage() for r in errors), [
        r.getMessage() for r in errors
    ]
    return errors


@pytest.mark.timeout(300)
class TestDecodeFailure:
    """A raising engine fails its tenant, never the server."""

    def test_failed_tenant_releases_slot_and_id(
        self, one_slot, monkeypatch, caplog
    ):
        block = np.zeros(4096, dtype=np.complex64)
        with one_slot.client() as client:
            client.hello("t")
            with pytest.raises(GatewayError) as excinfo:
                client.hello("other")
            assert excinfo.value.code == ERR_TENANT_LIMIT
            process_block = StreamEngine.process_block
            monkeypatch.setattr(StreamEngine, "process_block", _boom)
            # Admission is the reply; the decode fails after it.
            assert client.send_samples("t", block) == {"type": "accepted"}
            for request in (
                lambda: client.poll("t"),
                lambda: client.send_samples("t", block),
                lambda: client.finish("t"),
                lambda: client.stats("t"),
            ):
                with pytest.raises(GatewayError) as excinfo:
                    request()
                assert excinfo.value.code == ERR_DECODE_FAILED
            stats = client.stats()
            assert stats["active_tenants"] == 0
            assert stats["tenants"]["t"]["failed"] is True
            # Slot and id are free: the id starts a fresh session.
            monkeypatch.setattr(StreamEngine, "process_block", process_block)
            assert client.hello("t")["type"] == "welcome"
            client.send_samples("t", block)
            _messages, finished = client.finish("t")
            assert finished["failed"] is False
        assert len(_failures(caplog)) == 1
        counters = REGISTRY.snapshot()["counters"]
        assert counters["gateway.tenants_failed"] == 1
        one_slot.stop()
        assert one_slot.run_error is None
        assert one_slot.loop_errors == []

    def test_failed_flush_never_escapes(self, one_slot, monkeypatch, caplog):
        monkeypatch.setattr(StreamEngine, "finish", _boom)
        block = np.zeros(4096, dtype=np.complex64)
        # finish: the request is refused and the slot released.
        with one_slot.client() as client:
            client.hello("f")
            client.send_samples("f", block)
            with pytest.raises(GatewayError) as excinfo:
                client.finish("f")
            assert excinfo.value.code == ERR_DECODE_FAILED
            assert client.hello("a")["type"] == "welcome"
        # abandon: the connection closed with "a" active.
        one_slot.wait_active(0)
        # drain: "d" is still active at shutdown.
        keeper = one_slot.client()
        try:
            assert keeper.hello("d")["type"] == "welcome"
            one_slot.stop()
        finally:
            keeper.close()
        assert one_slot.run_error is None
        assert one_slot.loop_errors == []
        assert len(_failures(caplog)) == 3
        assert REGISTRY.snapshot()["counters"]["gateway.tenants_failed"] == 3
        assert all(
            stats["failed"]
            for stats in one_slot.server.core.stats()["tenants"].values()
        )
