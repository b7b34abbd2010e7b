"""GatewayCore: admission control, backpressure, byte-exact delivery."""

import gc

import numpy as np
import pytest

import repro.gateway.core as core_module
from repro.gateway.core import GatewayCore
from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_DECODE_FAILED,
    ERR_DUPLICATE_TENANT,
    ERR_SHUTTING_DOWN,
    ERR_STREAM_ENDED,
    ERR_TENANT_LIMIT,
    ERR_UNKNOWN_TENANT,
    GatewayError,
)
from repro.gateway.loadgen import build_workloads, drive_core, run_loadgen
from repro.gateway.tenant import TenantConsumer
from repro.obs.metrics import REGISTRY
from repro.stream.native import lib

#: Fast decode path for end-to-end tests: one decimated channel.
FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "working_dtype": "complex64",
}


def _delivered():
    """Two tenants, two senders each, through one core: payloads per tenant."""
    workloads = build_workloads(
        2, 2, seed=11, duration_s=0.02,
        engine=FAST_ENGINE, dtype="complex64",
    )
    with GatewayCore(engine=FAST_ENGINE, max_tenants=2) as core:
        drive_core(core, workloads)
    return {
        w.tenant_id: sorted(
            (m["zigbee_channel"], m["msg_id"], m["data"])
            for m in w.delivered
        )
        for w in workloads
    }


def _zeros(n=256):
    return np.zeros(n, dtype=np.complex64)


class TestAdmissionControl:
    def test_tenant_limit_refused_with_code(self):
        with GatewayCore(max_tenants=2) as core:
            core.admit("a")
            core.admit("b")
            with pytest.raises(GatewayError) as excinfo:
                core.admit("c")
            assert excinfo.value.code == ERR_TENANT_LIMIT

    def test_finished_tenant_frees_a_slot(self):
        with GatewayCore(max_tenants=1, engine=FAST_ENGINE) as core:
            core.admit("a")
            core.finish_tenant("a")
            core.admit("b")  # the limit counts *active* tenants

    def test_duplicate_tenant_refused(self):
        with GatewayCore() as core:
            core.admit("a")
            with pytest.raises(GatewayError) as excinfo:
                core.admit("a")
            assert excinfo.value.code == ERR_DUPLICATE_TENANT

    def test_finished_tenant_id_can_be_readmitted(self):
        # ``finish`` releases the id: a later admit under the same name
        # is a fresh session, not a duplicate-tenant refusal.
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros())
            core.finish_tenant("a")
            info = core.admit("a")
            assert info["tenant"] == "a"
            stats = core.tenant_stats("a")
            assert not stats["finished"]
            assert stats["blocks_in"] == 0  # zeroed, not carried over
            # The fresh session is fully usable end to end.
            core.submit("a", _zeros())
            result = core.finish_tenant("a")
            assert result["stats"]["finished"]

    def test_readmission_still_refused_while_active(self):
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros())
            with pytest.raises(GatewayError) as excinfo:
                core.admit("a")
            assert excinfo.value.code == ERR_DUPLICATE_TENANT

    def test_unknown_tenant_refused(self):
        with GatewayCore() as core:
            with pytest.raises(GatewayError) as excinfo:
                core.submit("ghost", _zeros())
            assert excinfo.value.code == ERR_UNKNOWN_TENANT

    def test_submit_after_finish_refused(self):
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.finish_tenant("a")
            with pytest.raises(GatewayError) as excinfo:
                core.submit("a", _zeros())
            assert excinfo.value.code == ERR_STREAM_ENDED

    def test_draining_gateway_refuses_admission(self):
        # ``drain()`` finishes by closing the core, so the window where
        # ``shutting-down`` is the answer is while the flag is up and
        # tenants are still being finished — model that state directly.
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core._draining = True
            with pytest.raises(GatewayError) as excinfo:
                core.admit("b")
            assert excinfo.value.code == ERR_SHUTTING_DOWN
            assert core.draining

    def test_drain_returns_undelivered_work(self):
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros())
            results = core.drain()
        assert set(results) == {"a"}
        assert results["a"]["stats"]["finished"]

    def test_invalid_max_tenants(self):
        with pytest.raises(ValueError):
            GatewayCore(max_tenants=0)

    @pytest.mark.parametrize(
        "engine",
        [
            {"scan_stride_bits": 0},
            {"scan_stride_bits": 65},
            {"scan_stride_bits": 1 << 40},
            {"scan_stride_bits": 4.0},
            {"scan_stride_bits": True},
            {"scan_stride_bits": "8"},
            {"decimation": 0},
            {"decimation": 3},
            {"decimation": 16},
            {"decimation": True},
            {"zigbee_channels": list(range(11, 28))},
            {"zigbee_channels": 13},
            {"zigbee_channels": "13"},
        ],
    )
    def test_out_of_range_engine_refused_before_build(
        self, engine, monkeypatch
    ):
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built for a refused hello")

        monkeypatch.setattr(core_module, "TenantConsumer", no_engine)
        with GatewayCore(engine=FAST_ENGINE) as core:
            with pytest.raises(GatewayError) as excinfo:
                core.admit("a", engine=engine)
            assert excinfo.value.code == ERR_BAD_REQUEST
            assert core.tenant_ids() == []

    @pytest.mark.parametrize(
        "engine",
        [
            {"tau": 3},
            {"tau_sync": 0},
            {"capture_tau": 10**9},
            {"ntaps": 21},
            {"cutoff_hz": 1e6},
            {"sample_rate": 20e6},
        ],
    )
    def test_retired_engine_key_refused(self, engine):
        """A key the engine no longer takes is refused, never admitted."""
        with GatewayCore(engine=FAST_ENGINE) as core:
            with pytest.raises(GatewayError) as excinfo:
                core.admit("a", engine=engine)
            assert excinfo.value.code == ERR_BAD_REQUEST
            assert next(iter(engine)) in str(excinfo.value)
            assert core.tenant_ids() == []

    def test_in_range_engine_overrides_admitted(self):
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a", engine={"scan_stride_bits": 4, "decimation": 8})
            core.admit(
                "b",
                engine={
                    "zigbee_channels": [11, 14],
                    "working_dtype": "complex128",
                },
            )
            assert core.tenant_ids() == ["a", "b"]


def _counting_decodes(monkeypatch):
    """Record the size of every block a consumer decodes."""
    decoded = []
    process = TenantConsumer.process

    def counted(consumer, block):
        decoded.append(block.size)
        return process(consumer, block)

    monkeypatch.setattr(TenantConsumer, "process", counted)
    return decoded


class TestBackpressure:
    def test_submit_admits_and_pump_decodes(self, monkeypatch):
        decoded = _counting_decodes(monkeypatch)
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros(256))
            assert decoded == []
            assert core.tenant_stats("a")["blocks_in"] == 1
            core.pump()
            assert decoded == [256]
            core.pump()  # nothing held: nothing decoded twice
            assert decoded == [256]

    def test_second_submit_decodes_the_held_block(self, monkeypatch):
        # A tenant holds at most one undecoded block: a submit with no
        # pump since the last one decodes the held block first.
        decoded = _counting_decodes(monkeypatch)
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros(256))
            core.submit("a", _zeros(128))
            assert decoded == [256]
            core.submit("a", _zeros(64))
            assert decoded == [256, 128]
            core.pump()
            assert decoded == [256, 128, 64]
            assert core.tenant_stats("a")["blocks_in"] == 3

    def test_failed_held_decode_refuses_the_submit(self, monkeypatch):
        monkeypatch.setattr(TenantConsumer, "process", _boom)
        REGISTRY.enable()
        REGISTRY.reset()
        try:
            with GatewayCore(engine=FAST_ENGINE) as core:
                core.admit("a")
                core.submit("a", _zeros())
                with pytest.raises(GatewayError) as excinfo:
                    core.submit("a", _zeros(100))
                assert excinfo.value.code == ERR_DECODE_FAILED
                stats = core.stats()
                counters = REGISTRY.snapshot()["counters"]
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert stats["active_tenants"] == 0
        assert stats["tenants"]["a"]["failed"] is True
        # The refused block was never admitted.
        assert stats["tenants"]["a"]["blocks_in"] == 1
        assert counters["gateway.samples_admitted"] == 256
        assert counters["gateway.tenants_failed"] == 1


@pytest.mark.timeout(300)
class TestEndToEndDelivery:
    def test_serial_loadgen_is_byte_exact(self):
        report = run_loadgen(
            tenants=2,
            senders=2,
            seed=11,
            duration_s=0.02,
            engine=FAST_ENGINE,
            dtype="complex64",
        )
        assert report["ok"], report
        assert all(row["byte_exact"] for row in report["tenants"])
        assert sum(row["expected"] for row in report["tenants"]) > 0
        assert report["aggregate_x_realtime"] > 0

    def test_registry_does_not_switch_payloads(self):
        # ``serve`` enables the metrics registry unconditionally, so the
        # gateway must deliver exactly what an unmetered core delivers.
        REGISTRY.enable()
        try:
            metered = _delivered()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert metered == _delivered()
        assert any(metered.values())  # the comparison is not vacuous

    def test_per_tenant_engine_override_is_honored(self):
        # Two tenants fed the same samples, one overriding the listen
        # channel: each session decodes with *its own* engine (deliveries
        # carry the tenant's configured channel), and only the matched
        # listener recovers the full expected set.
        workloads = build_workloads(
            1, 2, seed=11, duration_s=0.02,
            engine=FAST_ENGINE, dtype="complex64",
        )
        off_channel = dict(FAST_ENGINE, zigbee_channels=[11])
        with GatewayCore(engine=FAST_ENGINE, max_tenants=2) as core:
            core.admit("matched")
            core.admit("detuned", engine=off_channel)
            for workload in workloads:
                for lo in range(0, workload.samples.size, 16384):
                    block = workload.samples[lo : lo + 16384]
                    core.submit("matched", block)
                    core.submit("detuned", block)
            matched = core.finish_tenant("matched")["messages"]
            detuned = core.finish_tenant("detuned")["messages"]
        assert len(matched) == len(workloads[0].expected) > 0
        # Each session decoded with its own engine: deliveries carry the
        # tenant's configured listen channel, so the override reached the
        # consumer and the sessions never shared state.  (Payload content
        # may coincide — decimation aliases the adjacent channel in.)
        assert all(m["zigbee_channel"] == 13 for m in matched)
        assert detuned and all(m["zigbee_channel"] == 11 for m in detuned)


def _boom(*args, **kwargs):
    raise RuntimeError("decoder bug")


class TestDecodeFailure:
    def test_raising_consumer_fails_only_its_tenant(self, monkeypatch):
        process = TenantConsumer.process
        decoded = []

        def flaky(consumer, block):
            if consumer.tenant_id == "bad":
                _boom()
            decoded.append(block.size)
            return process(consumer, block)

        monkeypatch.setattr(TenantConsumer, "process", flaky)
        with GatewayCore(engine=FAST_ENGINE, max_tenants=2) as core:
            core.admit("bad")
            core.admit("good")
            core.submit("bad", _zeros())
            core.submit("good", _zeros(128))
            core.pump()  # never re-raises
            assert decoded == [128]
            stats = core.stats()
            assert stats["active_tenants"] == 1
            assert stats["tenants"]["bad"]["failed"] is True
            for request in (
                lambda: core.poll("bad"),
                lambda: core.submit("bad", _zeros()),
                lambda: core.finish_tenant("bad"),
                lambda: core.tenant_stats("bad"),
            ):
                with pytest.raises(GatewayError) as excinfo:
                    request()
                assert excinfo.value.code == ERR_DECODE_FAILED
            # The id and slot are free again: a fresh session decodes.
            monkeypatch.setattr(TenantConsumer, "process", process)
            core.admit("bad")
            core.submit("bad", _zeros())
            assert core.finish_tenant("bad")["stats"]["failed"] is False

    def test_raising_flush_never_escapes(self, monkeypatch):
        monkeypatch.setattr(TenantConsumer, "finish", _boom)
        owner = object()
        core = GatewayCore(engine=FAST_ENGINE, max_tenants=3)
        core.admit("finished")
        core.admit("abandoned", owner=owner)
        core.admit("drained")
        with pytest.raises(GatewayError) as excinfo:
            core.finish_tenant("finished")
        assert excinfo.value.code == ERR_DECODE_FAILED
        assert core.abandon(owner) == {}
        assert core.drain() == {}
        assert all(
            stats["failed"] for stats in core.stats()["tenants"].values()
        )


class TestIntrospection:
    def test_stats_shape(self):
        with GatewayCore(engine=FAST_ENGINE) as core:
            core.admit("a")
            core.submit("a", _zeros())
            stats = core.stats()
        assert stats["active_tenants"] == 1
        assert "jobs" not in stats
        assert "pool" not in stats
        tenant = stats["tenants"]["a"]
        assert tenant["blocks_in"] == 1
        assert tenant["samples_in"] == 256

    def test_closed_core_refuses_use(self):
        core = GatewayCore(engine=FAST_ENGINE)
        core.close()
        with pytest.raises(ValueError):
            core.pump()


def test_finished_tenants_free_their_native_sessions():
    # The gateway re-admits its tenants every pass, and a finished
    # tenant's state (engine included) stays until its id returns: each
    # finish must free the engine's native session buffers, or a
    # long-running server's memory grows with every admission.
    gc.collect()
    live = lib.session_live()
    block = np.zeros(4096, np.complex64)
    with GatewayCore(engine=FAST_ENGINE, max_tenants=4) as core:
        for wave in range(75):
            ids = [f"tenant-{wave}-{i}" for i in range(4)]
            for tenant_id in ids:
                core.admit(tenant_id)
                core.submit(tenant_id, block)
            core.pump()
            # One session per one-channel engine.
            assert lib.session_live() == live + 4
            for tenant_id in ids:
                core.finish_tenant(tenant_id)
            assert lib.session_live() == live
        assert len(core.tenant_ids()) == 300
    assert lib.session_live() == live
