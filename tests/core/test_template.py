"""Unit tests for the template-correlation decoder."""

import numpy as np
import pytest

from repro.core.decoder import SymBeeDecoder
from repro.core.template import TemplateDecoder, bit_templates
from repro.core.link import link_at_snr


class TestTemplates:
    def test_mask_is_substantial(self):
        templates, mask = bit_templates()
        # More than half the bit period is neighbour-invariant.
        assert mask.sum() > 300
        assert templates.shape == (2, 640)

    def test_templates_differ_inside_mask(self):
        templates, mask = bit_templates()
        delta = np.abs(
            np.angle(np.exp(1j * (templates[0] - templates[1])))
        )[mask]
        # The stable plateau region separates by 8pi/5 (wrapped: 2pi/5).
        assert delta.max() > 1.0

    def test_stable_window_inside_mask(self):
        _, mask = bit_templates()
        # The decoder's 84-sample window (starting at offset 0 of the
        # template) must be neighbour-invariant.
        assert mask[:84].all()

    def test_cached(self):
        a = bit_templates()
        b = bit_templates()
        assert a[0] is b[0]


class TestDecoding:
    def test_clean_roundtrip(self, rng):
        link = link_at_snr(15.0)
        template_decoder = TemplateDecoder(link.decoder)
        bits = list(rng.integers(0, 2, 32))
        result = link.send_bits(bits, rng, keep_phases=True,
                                decode_synchronized=False)
        decoded = template_decoder.decode_synchronized(
            result.phases, result.true_data_start, len(bits)
        )
        assert list(decoded.bits) == bits

    def test_beats_vote_decoder_at_low_snr(self, rng):
        link = link_at_snr(-7.0)
        template_decoder = TemplateDecoder(link.decoder)
        vote_errors = template_errors = sent = 0
        for _ in range(8):
            bits = rng.integers(0, 2, 48)
            result = link.send_bits(bits, rng, keep_phases=True,
                                    decode_synchronized=False)
            vote_errors += result.bit_errors
            decoded = template_decoder.decode_synchronized(
                result.phases, result.true_data_start, len(bits)
            )
            template_errors += sum(
                a != b for a, b in zip(bits, decoded.bits)
            )
            sent += len(bits)
        assert template_errors < vote_errors
        assert template_errors / sent < 0.08

    def test_margin_reported(self, rng):
        link = link_at_snr(15.0)
        template_decoder = TemplateDecoder(link.decoder)
        result = link.send_bits([1, 0], rng, keep_phases=True,
                                decode_synchronized=False)
        decoded = template_decoder.decode_synchronized(
            result.phases, result.true_data_start, 2
        )
        assert all(margin > 50 for margin in decoded.counts)

    def test_truncated_stream(self, rng):
        link = link_at_snr(15.0)
        template_decoder = TemplateDecoder(link.decoder)
        result = link.send_bits([1, 0, 1], rng, keep_phases=True,
                                decode_synchronized=False)
        decoded = template_decoder.decode_synchronized(
            result.phases[: result.true_data_start + 700],
            result.true_data_start,
            3,
        )
        assert len(decoded.bits) < 3

    def test_api_mirrors_vote_decoder(self):
        decoder = SymBeeDecoder()
        template_decoder = TemplateDecoder(decoder)
        empty = template_decoder.decode_synchronized(np.zeros(10), -1, 1)
        assert empty.bits == ()
