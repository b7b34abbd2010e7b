"""StreamSession, and the reference session's absolute-index buffer."""

import gc

import numpy as np
import pytest

from repro.core.decoder import SymBeeDecoder
from repro.stream.native import lib
from repro.stream.session import StreamSession
from tests.stream.session_reference import StreamBuffer


class TestStreamBuffer:
    def test_append_view_roundtrip(self, rng):
        buf = StreamBuffer()
        data = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        buf.append(data[:60])
        buf.append(data[60:])
        assert buf.base == 0
        assert buf.end == 100
        assert (buf.view(0, 100) == data).all()
        assert (buf.view(40, 70) == data[40:70]).all()

    def test_trim_then_view(self, rng):
        buf = StreamBuffer()
        data = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        buf.append(data)
        buf.trim(20)
        assert buf.base == 20
        assert (buf.view(20, 50) == data[20:]).all()
        with pytest.raises(IndexError):
            buf.view(10, 30)
        with pytest.raises(IndexError):
            buf.view(30, 60)

    def test_growth_past_initial_capacity(self, rng):
        buf = StreamBuffer()
        chunks = [
            rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
            for _ in range(5)
        ]
        for chunk in chunks:
            buf.append(chunk)
        whole = np.concatenate(chunks)
        assert (buf.view(0, whole.size) == whole).all()

    def test_compaction_after_trim(self, rng):
        buf = StreamBuffer()
        data = rng.standard_normal(6000) + 1j * rng.standard_normal(6000)
        buf.append(data[:5000])
        buf.trim(4500)
        buf.append(data[5000:])  # fits only by compacting trimmed space
        assert (buf.view(4500, 6000) == data[4500:]).all()


class TestStreamSession:
    def test_noise_only_stream_emits_nothing(self, rng):
        decoder = SymBeeDecoder()
        session = StreamSession(decoder, zigbee_channel=13)
        noise = 1e-3 * (
            rng.standard_normal(50000) + 1j * rng.standard_normal(50000)
        )
        frames = session.push_products(noise)
        frames += session.finish()
        assert frames == []
        assert session.frames_emitted == 0

    def test_horizon_advances_monotonically(self, rng):
        decoder = SymBeeDecoder()
        session = StreamSession(decoder, zigbee_channel=13)
        noise = 1e-3 * (
            rng.standard_normal(40000) + 1j * rng.standard_normal(40000)
        )
        last = session.horizon
        for lo in range(0, 40000, 4096):
            session.push_products(noise[lo : lo + 4096])
            assert session.horizon >= last
            last = session.horizon

    def test_invalid_scan_stride(self):
        with pytest.raises(ValueError):
            StreamSession(SymBeeDecoder(), scan_stride_bits=0)

    def test_stats_shape(self):
        session = StreamSession(SymBeeDecoder(), zigbee_channel=11)
        stats = session.stats()
        assert stats["zigbee_channel"] == 11
        assert stats["products_in"] == 0
        assert stats["frames_emitted"] == 0

    def test_finish_frees_the_native_session(self, rng):
        gc.collect()
        live = lib.session_live()
        session = StreamSession(SymBeeDecoder(decimation=8), zigbee_channel=11)
        dropped = StreamSession(SymBeeDecoder(decimation=8))
        assert lib.session_live() == live + 2
        noise = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        session.push_products(noise)
        horizon = session.horizon
        session.finish()
        assert lib.session_live() == live + 1
        # The stream has ended: its horizon is its end, a push refuses.
        assert session.horizon == 5000 >= horizon
        assert session.stats()["products_in"] == 5000
        with pytest.raises(RuntimeError, match="finished"):
            session.push_products(noise)
        assert session.finish() == []
        # An unfinished session is freed with the object.
        del dropped
        gc.collect()
        assert lib.session_live() == live
