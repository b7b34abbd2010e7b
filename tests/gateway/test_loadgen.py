"""Load harness: seeded determinism, ground truth, report contract."""

import numpy as np
import pytest

from repro.gateway.loadgen import build_workloads, run_loadgen, verify

FAST_ENGINE = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "mode": "fast",
    "working_dtype": "complex64",
}


class TestBuildWorkloads:
    def test_same_seed_sample_identical(self):
        a = build_workloads(2, 2, seed=9, duration_s=0.01)
        b = build_workloads(2, 2, seed=9, duration_s=0.01)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.samples, wb.samples)
            assert wa.expected == wb.expected
            assert wa.incomplete == wb.incomplete

    def test_different_seed_different_load(self):
        a, = build_workloads(1, 1, seed=9, duration_s=0.01)
        b, = build_workloads(1, 1, seed=10, duration_s=0.01)
        assert not np.array_equal(a.samples, b.samples)

    def test_tenants_draw_independent_streams(self):
        a, b = build_workloads(2, 1, seed=9, duration_s=0.02)
        assert not np.array_equal(a.samples, b.samples)
        assert a.expected and b.expected
        assert set(a.expected.values()) != set(b.expected.values())

    def test_sender_cap_enforced(self):
        with pytest.raises(ValueError, match="senders per tenant"):
            build_workloads(1, 17, seed=1, channels=(13,))

    def test_incomplete_scripts_excluded_from_contract(self):
        # A capture too short for any full fragment set owes nothing.
        (workload,) = build_workloads(
            1, 2, seed=9, duration_s=0.004, reading_interval_s=0.002
        )
        assert workload.incomplete >= 1
        assert len(workload.expected) + workload.incomplete == 2

    def test_expected_messages_match_seeded_script(self):
        (workload,) = build_workloads(1, 1, seed=9, duration_s=0.02)
        rng = np.random.default_rng([9, 0, 0])
        assert workload.expected.get((13, 0)) == rng.bytes(5)


class TestVerify:
    def _workload(self):
        (workload,) = build_workloads(
            1, 1, seed=9, duration_s=0.02, engine=FAST_ENGINE
        )
        return workload

    def test_missing_delivery_fails(self):
        workload = self._workload()
        rows, ok = verify([workload])
        assert not ok and rows[0]["matched"] == 0

    def test_corrupt_delivery_fails(self):
        workload = self._workload()
        (key, message), = workload.expected.items()
        workload.delivered.append(
            {"zigbee_channel": key[0], "msg_id": key[1], "data": b"\0" + message}
        )
        _, ok = verify([workload])
        assert not ok

    def test_exact_delivery_passes(self):
        workload = self._workload()
        for (channel, msg_id), message in workload.expected.items():
            workload.delivered.append(
                {"zigbee_channel": channel, "msg_id": msg_id, "data": message}
            )
        rows, ok = verify([workload])
        assert ok and rows[0]["byte_exact"]

    def test_unexpected_extra_fails(self):
        workload = self._workload()
        for (channel, msg_id), message in workload.expected.items():
            workload.delivered.append(
                {"zigbee_channel": channel, "msg_id": msg_id, "data": message}
            )
        workload.delivered.append(
            {"zigbee_channel": 99, "msg_id": 0, "data": b"?"}
        )
        _, ok = verify([workload])
        assert not ok


@pytest.mark.timeout(300)
class TestRunLoadgen:
    def test_report_contract(self):
        report = run_loadgen(
            tenants=1,
            senders=1,
            seed=9,
            duration_s=0.02,
            engine=FAST_ENGINE,
            dtype="complex64",
        )
        assert report["ok"]
        assert report["seed"] == 9
        assert "jobs" not in report
        assert report["total_samples"] > 0
        assert report["stream_seconds"] > 0
        assert report["aggregate_x_realtime"] > 0
        (row,) = report["tenants"]
        assert row["tenant"] == "tenant-0"
        assert row["byte_exact"]
