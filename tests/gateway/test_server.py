"""GatewayServer: wire round-trips, error contract, /metrics, shutdown."""

import asyncio
import threading
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
from repro.gateway.protocol import GatewayClient, pack_message
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
        self._started.set()

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
