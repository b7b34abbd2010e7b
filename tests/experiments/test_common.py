"""Unit tests for the experiment harness infrastructure."""

import numpy as np
import pytest

from repro.core.link import LinkResult, link_at_snr
from repro.experiments.common import (
    LinkStats,
    fmt,
    mc_scale,
    measure_link,
    print_table,
    scaled,
)


def _result(captured=True, errors=0, n=10):
    return LinkResult(
        sent_bits=tuple([1] * n),
        decoded_bits=tuple([1] * n) if captured else (),
        preamble_captured=captured,
        bit_errors=errors if captured else n,
        counts=(),
        rx_power_dbm=-60.0,
        snr_db=20.0,
        captured_data_start=0 if captured else None,
        true_data_start=0,
    )


class TestLinkStats:
    def test_aggregation(self):
        stats = LinkStats()
        stats.add(_result(errors=2))
        stats.add(_result(captured=False))
        assert stats.frames == 2
        assert stats.capture_rate == 0.5
        assert stats.bits_sent == 20
        assert stats.bit_errors == 12
        assert stats.ber == pytest.approx(0.6)

    def test_throughput_full_delivery(self):
        stats = LinkStats()
        stats.add(_result())
        assert stats.throughput_bps == pytest.approx(31_250.0)

    def test_throughput_empty(self):
        assert LinkStats().throughput_bps == 0.0
        assert LinkStats().ber == 0.0
        assert LinkStats().capture_rate == 0.0

    def test_mean_snr(self):
        stats = LinkStats()
        stats.add(_result())
        assert stats.mean_snr_db == pytest.approx(20.0)


class TestScaling:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert mc_scale() == 1.0
        assert scaled(10) == 10

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "3")
        assert scaled(10) == 30

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert mc_scale() == 1.0

    def test_minimum_two(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert scaled(10) == 2


class TestLinkAtSnr:
    def test_snr_calibrated(self, rng):
        link = link_at_snr(7.0)
        result = link.send_bits([1, 0], rng)
        assert result.snr_db == pytest.approx(7.0, abs=0.5)

    def test_measure_link(self, rng):
        link = link_at_snr(20.0)
        stats = measure_link(link, rng, n_frames=3, bits_per_frame=16)
        assert stats.frames == 3
        assert stats.bits_sent == 48
        assert stats.ber == 0.0


class TestPrinting:
    def test_fmt(self):
        assert fmt(1.23456, 2) == "1.23"
        assert fmt("abc") == "abc"
        assert fmt(7) == "7"

    def test_print_table_smoke(self, capsys):
        print_table(("a", "bb"), [(1, 2), (33, 4)], title="t")
        out = capsys.readouterr().out
        assert "== t ==" in out
        assert "33" in out

    def test_print_table_empty_rows(self, capsys):
        print_table(("col",), [])
        assert "col" in capsys.readouterr().out
