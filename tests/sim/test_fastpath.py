"""Calibrated delivery table: cache lifecycle and PHY cross-validation."""

import json
import math

import pytest

from repro.experiments.common import scaled
from repro.sim.fastpath import (
    CalibrationConfig,
    DeliveryTable,
    sample_frame_outcomes,
)


def tiny_config(**overrides):
    base = dict(
        snr_grid_db=(-2.0, 2.0, 6.0),
        max_interferers=0,
        frames_per_point=4,
        seed=99,
    )
    base.update(overrides)
    return CalibrationConfig(**base)


def synthetic_table(config, probability_fn):
    cells = {
        (snr, k, fec): (
            int(round(probability_fn(snr, k) * config.frames_per_point)),
            config.frames_per_point,
        )
        for snr, k, fec in config.points()
    }
    return DeliveryTable(config, cells)


class TestTableLookup:
    def test_interpolates_linearly_between_grid_points(self):
        config = tiny_config(frames_per_point=100)
        table = synthetic_table(
            config, lambda snr, k: (snr + 2.0) / 8.0
        )
        assert table.probability(-2.0) == pytest.approx(0.0)
        assert table.probability(6.0) == pytest.approx(1.0)
        assert table.probability(0.0) == pytest.approx(0.25)
        assert table.probability(3.0) == pytest.approx(0.625)

    def test_clamps_outside_grid_and_interferer_range(self):
        config = tiny_config(frames_per_point=100, max_interferers=1)
        table = synthetic_table(
            config, lambda snr, k: max(0.0, min(1.0, 0.5 - 0.3 * k))
        )
        assert table.probability(-50.0, 0) == pytest.approx(0.5)
        assert table.probability(50.0, 0) == pytest.approx(0.5)
        assert table.probability(0.0, 7) == pytest.approx(0.2)

    def test_unknown_fec_is_an_error(self):
        table = synthetic_table(tiny_config(), lambda snr, k: 1.0)
        with pytest.raises(ValueError, match="not calibrated"):
            table.probability(0.0, fec="conv")

    def test_missing_grid_points_rejected(self):
        config = tiny_config()
        cells = {p: (1, 4) for p in config.points()[1:]}
        with pytest.raises(ValueError, match="missing"):
            DeliveryTable(config, cells)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        table = synthetic_table(config, lambda snr, k: 0.5)
        path = table.save(config.cache_path(tmp_path))
        loaded = DeliveryTable.load(path, config)
        assert loaded.cells == table.cells

    def test_config_change_changes_cache_file(self, tmp_path):
        a = tiny_config()
        b = tiny_config(frames_per_point=8)
        assert a.config_hash() != b.config_hash()
        assert a.cache_path(tmp_path) != b.cache_path(tmp_path)

    def test_load_rejects_config_mismatch(self, tmp_path):
        config = tiny_config()
        table = synthetic_table(config, lambda snr, k: 0.5)
        path = table.save(config.cache_path(tmp_path))
        other = tiny_config(seed=100)
        with pytest.raises(ValueError, match="config mismatch"):
            DeliveryTable.load(path, other)

    def test_load_rejects_truncated_json(self, tmp_path):
        config = tiny_config()
        table = synthetic_table(config, lambda snr, k: 0.5)
        path = table.save(config.cache_path(tmp_path))
        content = open(path).read()
        with open(path, "w") as fh:
            fh.write(content[: len(content) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            DeliveryTable.load(path, config)

    def test_load_rejects_partial_table(self, tmp_path):
        config = tiny_config()
        table = synthetic_table(config, lambda snr, k: 0.5)
        path = table.save(config.cache_path(tmp_path))
        document = json.load(open(path))
        document["cells"] = document["cells"][:-1]
        with open(path, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(ValueError, match="missing"):
            DeliveryTable.load(path, config)

    def test_cache_hit_skips_calibration(self, tmp_path):
        config = tiny_config()
        first = DeliveryTable.load_or_calibrate(config, cache_dir=tmp_path)
        # A second load must not touch the PHY: poison the trial fn.
        import repro.sim.fastpath as fastpath

        original = fastpath.sample_frame_outcomes
        fastpath.sample_frame_outcomes = None
        try:
            second = DeliveryTable.load_or_calibrate(
                config, cache_dir=tmp_path
            )
        finally:
            fastpath.sample_frame_outcomes = original
        assert second.cells == first.cells

    def test_corrupt_cache_recovers_with_one_line_warning(
        self, tmp_path, caplog, monkeypatch
    ):
        # A prior CLI invocation may have wired the ``repro`` logger
        # with propagate=False (see obs.configure_logging); caplog
        # listens on the root logger, so restore propagation here.
        import logging

        monkeypatch.setattr(
            logging.getLogger("repro"), "propagate", True
        )
        config = tiny_config()
        first = DeliveryTable.load_or_calibrate(config, cache_dir=tmp_path)
        path = config.cache_path(tmp_path)
        with open(path, "w") as fh:
            fh.write("{not json")
        with caplog.at_level("WARNING", logger="repro.sim.fastpath"):
            recovered = DeliveryTable.load_or_calibrate(
                config, cache_dir=tmp_path
            )
        assert recovered.cells == first.cells
        warnings = [
            r for r in caplog.records if "recalibrating" in r.getMessage()
        ]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        # One line, path-prefixed — the obs-summary error style.
        assert "\n" not in message
        assert message.startswith(str(path))
        # And the cache healed: next load is clean.
        assert DeliveryTable.load(path, config).cells == first.cells


class TestFecColumns:
    def test_calibrates_every_fec_scheme(self):
        # Each scheme's decode runs on every frame: a clean 12 dB link
        # delivers all of them.
        config = tiny_config(
            snr_grid_db=(0.0, 12.0),
            frames_per_point=2,
            fec_schemes=("none", "hamming", "conv"),
        )
        table = DeliveryTable.calibrate(config, jobs=1)
        assert sorted(table.cells) == sorted(config.points())
        for fec in config.fec_schemes:
            assert table.cells[(12.0, 0, fec)] == (2, 2)
            assert table.probability(12.0, fec=fec) == 1.0


class TestCrossValidation:
    """The packet fast path must stay inside binomial bounds of the PHY.

    Calibrate a small table from the sample-level PHY, then re-measure
    delivery at every grid SNR with an *independent* seed and require
    two-proportion agreement at z=4 (false-alarm odds ~1e-4 per point,
    negligible across the suite).
    """

    def test_table_matches_sample_phy_on_three_operating_points(self):
        n = scaled(40)
        config = CalibrationConfig(
            snr_grid_db=(0.0, 2.0, 4.0),
            max_interferers=0,
            frames_per_point=n,
            seed=1234,
        )
        table = DeliveryTable.calibrate(config, jobs=1)
        z = 4.0
        checked = 0
        for snr in config.snr_grid_db:
            table_p = table.probability(snr)
            delivered = sample_frame_outcomes(
                snr, 0, "none", config, seed=987_000 + checked, n_frames=n
            )
            observed = delivered / n
            pooled = (table_p * n + delivered) / (2 * n)
            spread = max(pooled * (1.0 - pooled), 1.0 / n)
            bound = z * math.sqrt(spread * (2.0 / n))
            assert abs(observed - table_p) <= bound, (
                f"snr={snr}: table {table_p:.3f} vs phy {observed:.3f} "
                f"(bound {bound:.3f})"
            )
            checked += 1
        assert checked >= 3
        # The curve must actually span the threshold region — a flat
        # table would pass the bound test trivially.
        assert table.probability(0.0) < table.probability(4.0)
