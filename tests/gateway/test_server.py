"""GatewayServer: wire round-trips, error contract, /metrics, shutdown."""

import asyncio
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.gateway.core import GatewayCore
from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_TENANT,
    GatewayError,
)
from repro.gateway.loadgen import build_workloads, drive_client, verify
from repro.gateway.protocol import (
    GatewayClient,
    _parse_header,
    _parse_prefix,
    _recv_exactly,
    encode_block,
    pack_message,
)
from repro.gateway.server import GatewayServer
from repro.obs.metrics import REGISTRY

FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "mode": "fast",
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

        asyncio.run(main())

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
            assert welcome["ring_capacity"] == 64
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

    def test_samples_response_reports_shed(self, harness):
        with harness.client() as client:
            client.hello("t2")
            response = client.send_samples(
                "t2", np.zeros(128, dtype=np.complex64)
            )
            assert response["type"] == "accepted"
            assert response["accepted"] is True

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
        ],
        ids=[
            "list-tenant",
            "int-engine",
            "unknown-kwarg",
            "bad-decimation",
            "huge-ntaps",
        ],
    )
    def test_refused_as_bad_request(self, harness, header):
        with harness.client() as client:
            with pytest.raises(GatewayError) as excinfo:
                client.request(header)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert harness.server.core.tenant_ids() == []

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
            assert _response(slow._sock) == {
                "type": "accepted", "accepted": True
            }
            assert slow.stats("slow")["blocks_in"] == 1
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
