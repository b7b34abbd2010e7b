"""Fleet campaigns: determinism, fidelities, faults, CLI."""

import json
import math

import pytest

from repro.__main__ import main
from repro.experiments.common import scaled
from repro.sim import (
    CalibrationConfig,
    DeliveryTable,
    FleetSimulation,
    load_manifest,
    run_campaign,
)
from tests.sim.golden import logistic_table

BASE_MANIFEST = {
    "name": "unit",
    "seed": 21,
    "duration_s": 4.0,
    "fidelity": "packet",
    "topology": {"kind": "grid", "n_nodes": 16, "spacing_m": 4.0},
    "traffic": {"interval_s": 0.4, "max_retries": 1},
}


class TestDeterminism:
    def test_same_seed_same_manifest_bit_identical_summary(self):
        table = logistic_table()
        a = run_campaign(dict(BASE_MANIFEST), table=table)
        b = run_campaign(dict(BASE_MANIFEST), table=table)
        assert a.summary_json() == b.summary_json()

    def test_different_seed_different_outcome(self):
        table = logistic_table()
        a = run_campaign(dict(BASE_MANIFEST), table=table)
        other = dict(BASE_MANIFEST, seed=22)
        b = run_campaign(other, table=table)
        assert a.summary() != b.summary()

    def test_summary_excludes_wall_clock(self):
        table = logistic_table()
        result = run_campaign(dict(BASE_MANIFEST), table=table)
        assert result.elapsed_s is not None
        assert "elapsed" not in json.dumps(result.summary())


class TestInterferenceSummary:
    def test_quiet_campaign_reports_zero_duty(self):
        summary = run_campaign(
            dict(BASE_MANIFEST), table=logistic_table()
        ).summary()
        assert summary["interference"] == {
            "duty": 0.0,
            "n_interferers": 0,
            "mean_active": 0.0,
        }

    def test_duty_threads_from_manifest_to_summary(self):
        manifest = dict(
            BASE_MANIFEST,
            noise={
                "kind": "ambient",
                "interference_duty": 0.4,
                "n_interferers": 2,
            },
        )
        summary = run_campaign(manifest, table=logistic_table()).summary()
        info = summary["interference"]
        assert info["duty"] == 0.4
        assert info["n_interferers"] == 2
        # Observed activity is duty x n in expectation; generous bounds
        # keep the assertion seed-stable.
        assert 0.3 < info["mean_active"] < 1.3

    def test_mean_active_is_deterministic(self):
        manifest = dict(
            BASE_MANIFEST,
            noise={"kind": "ambient", "interference_duty": 0.25},
        )
        table = logistic_table()
        a = run_campaign(dict(manifest), table=table).summary_json()
        b = run_campaign(dict(manifest), table=table).summary_json()
        assert a == b
        assert json.loads(a)["interference"]["duty"] == 0.25


class TestMacBehaviour:
    def test_contention_produces_defers_and_collisions(self):
        table = logistic_table()
        manifest = dict(
            BASE_MANIFEST,
            topology={"kind": "grid", "n_nodes": 40, "spacing_m": 2.0},
            traffic={"interval_s": 0.03, "max_retries": 0},
            duration_s=3.0,
        )
        result = run_campaign(manifest, table=table)
        assert result.defers > 0
        assert result.collided > 0
        # Every offered frame terminates exactly once (collisions are a
        # cause of loss, counted within ``lost``).
        assert result.delivered + result.lost == result.offered

    def test_low_snr_margin_loses_frames_and_retries(self):
        table = logistic_table()
        manifest = dict(
            BASE_MANIFEST,
            comm={"scenario": "office", "snr_margin_db": 15.0,
                  "shadowing": False},
        )
        result = run_campaign(manifest, table=table)
        assert result.lost > 0
        assert result.retries > 0
        assert result.delivery_ratio < 1.0

    def test_crash_faults_suppress_arrivals(self):
        table = logistic_table()
        manifest = dict(
            BASE_MANIFEST,
            faults={"kind": "crash", "mtbf_s": 2.0, "mean_downtime_s": 2.0},
        )
        result = run_campaign(manifest, table=table)
        assert result.skipped_down > 0

    def test_ack_blackout_suppresses_retries(self):
        table = logistic_table()
        lossy = {
            "comm": {"scenario": "office", "snr_margin_db": 15.0,
                     "shadowing": False},
            "duration_s": 3.0,
        }
        noisy = dict(BASE_MANIFEST, **lossy)
        dark = dict(
            BASE_MANIFEST,
            **lossy,
            faults={"kind": "ack-blackout", "blackouts": [[0.0, 3.5]]},
        )
        with_acks = run_campaign(noisy, table=logistic_table())
        without_acks = run_campaign(dark, table=logistic_table())
        assert with_acks.retries > 0
        assert without_acks.retries == 0

    def test_multi_gateway_grows_contention_domains(self):
        table = logistic_table()
        one = FleetSimulation(dict(BASE_MANIFEST), table=table)
        four = FleetSimulation(
            dict(
                BASE_MANIFEST,
                topology={
                    "kind": "random",
                    "n_nodes": 30,
                    "radius_m": 40.0,
                    "gateways": 4,
                },
            ),
            table=table,
        )
        assert one.result.n_domains == 4
        assert four.result.n_domains > 4


class TestFidelities:
    def test_sample_fidelity_runs_the_real_phy(self):
        manifest = {
            "name": "sample-small",
            "seed": 9,
            "duration_s": 1.0,
            "fidelity": "sample",
            "topology": {"kind": "grid", "n_nodes": 4, "spacing_m": 0.1},
            "traffic": {"interval_s": 0.4, "max_retries": 0},
            "comm": {"scenario": "office", "snr_margin_db": 8.0,
                     "shadowing": False,
                     "calibration": {"snr_grid_db": [0.0, 4.0, 8.0],
                                     "frames_per_point": 4}},
        }
        result = run_campaign(manifest)
        assert result.fidelity == "sample"
        assert result.offered > 0
        assert 0.0 < result.delivery_ratio <= 1.0

    def test_packet_and_sample_agree_within_binomial_bounds(self):
        """Acceptance: same scene, both fidelities, compatible rates.

        All nodes sit at the 1 m reference distance (tiny grid spacing,
        distance floor) with shadowing off, so every frame is evaluated
        at the same pinned SNR; packet vs sample delivery then differ
        only by binomial noise.
        """
        n_frames = scaled(40)
        config = CalibrationConfig(
            snr_grid_db=(0.0, 2.0, 4.0),
            max_interferers=0,
            frames_per_point=n_frames,
            seed=77,
        )
        table = DeliveryTable.calibrate(config, jobs=1)
        manifest = {
            "name": "xval",
            "seed": 13,
            "duration_s": 4.0,
            "topology": {"kind": "grid", "n_nodes": 4, "spacing_m": 1e-6},
            "traffic": {"interval_s": 0.4, "max_retries": 0},
            "comm": {"scenario": "office", "snr_margin_db": 2.0,
                     "shadowing": False,
                     "calibration": {
                         "snr_grid_db": [0.0, 2.0, 4.0],
                         "frames_per_point": n_frames,
                         "seed": 77,
                     }},
        }
        packet = run_campaign(
            dict(manifest, fidelity="packet"), table=table
        )
        sample = run_campaign(dict(manifest, fidelity="sample"))
        n1 = max(packet.offered, 1)
        n2 = max(sample.offered, 1)
        p1, p2 = packet.delivery_ratio, sample.delivery_ratio
        pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
        spread = max(pooled * (1.0 - pooled), 1.0 / min(n1, n2))
        bound = 4.0 * math.sqrt(spread * (1.0 / n1 + 1.0 / n2))
        assert abs(p1 - p2) <= bound, (
            f"packet {p1:.3f} (n={n1}) vs sample {p2:.3f} (n={n2}), "
            f"bound {bound:.3f}"
        )


class TestManifest:
    def test_load_manifest_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(BASE_MANIFEST))
        assert load_manifest(path) == BASE_MANIFEST

    def test_missing_file_error_is_path_prefixed(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValueError, match="absent.json"):
            load_manifest(path)

    def test_invalid_json_error_is_path_prefixed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="broken.json.*not valid JSON"):
            load_manifest(path)

    def test_non_object_manifest_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_manifest(path)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            FleetSimulation({"duration_s": 0}, table=logistic_table())

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            FleetSimulation(
                dict(BASE_MANIFEST, fidelity="quantum"),
                table=logistic_table(),
            )


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One calibration cache shared by all CLI tests in this module."""
    return tmp_path_factory.mktemp("simcache")


class TestSimulateCli:
    def _flags(self, cache_dir, *extra):
        return [
            "simulate",
            "--nodes", "9",
            "--duration", "1.5",
            "--seed", "5",
            "--interval", "0.4",
            "--cache-dir", str(cache_dir),
            *extra,
        ]

    def test_flags_only_run(self, shared_cache, capsys):
        assert main(self._flags(shared_cache)) == 0
        out = capsys.readouterr().out
        assert "fleet campaign" in out
        assert "delivery ratio" in out

    def test_summary_out_is_deterministic(
        self, shared_cache, tmp_path, capsys
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self._flags(shared_cache, "--summary-out", str(a))) == 0
        assert main(self._flags(shared_cache, "--summary-out", str(b))) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(a.read_text())
        assert summary["seed"] == 5
        assert summary["offered"] > 0

    def test_manifest_file_with_flag_overrides(
        self, shared_cache, tmp_path, capsys
    ):
        path = tmp_path / "scene.json"
        path.write_text(
            json.dumps(
                {
                    "name": "from-file",
                    "seed": 1,
                    "duration_s": 1.0,
                    "topology": {"kind": "grid", "n_nodes": 4},
                }
            )
        )
        assert (
            main(
                [
                    "simulate", str(path),
                    "--seed", "2",
                    "--cache-dir", str(shared_cache),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "from-file" in out

    def test_metrics_out_feeds_obs_summary(
        self, shared_cache, tmp_path, capsys
    ):
        metrics = tmp_path / "sim.jsonl"
        # Warm the calibration cache first so the recorded run holds
        # only sim.* counters, not cold-calibration link.*/decoder.* ones.
        assert main(self._flags(shared_cache)) == 0
        assert (
            main(self._flags(shared_cache, "--metrics-out", str(metrics)))
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summary", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "sim.*" in out
        assert "sim.frames.offered" in out

    def test_trace_prints_span_totals(self, shared_cache, capsys):
        assert main(self._flags(shared_cache, "--trace")) == 0
        out = capsys.readouterr().out
        assert "== trace spans ==" in out
        assert any(
            line.startswith("sim.campaign ") for line in out.splitlines()
        )

    def test_bad_manifest_path_exits_2(self, capsys):
        assert main(["simulate", "/nonexistent/scene.json"]) == 2
        assert "scene.json" in capsys.readouterr().err

    def test_bad_model_kind_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"topology": {"kind": "mesh"}}))
        assert main(["simulate", str(path)]) == 2
        assert "unknown topology" in capsys.readouterr().err
