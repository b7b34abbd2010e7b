"""WiFi RF front-end model: mixer + sampler (paper Figure 4 (a)-(b)).

A ZigBee transmission centred at f_z appears, after the WiFi mixer tuned
to f_w, as a baseband signal rotating at the centre-frequency offset
f_delta = f_z - f_w.  That residual rotation is exactly what the paper's
Appendix B compensates with the constant +4pi/5 term; the front-end here
applies the true offset so the compensation code has something real to
undo.
"""

import numpy as np

from repro.constants import (
    DEFAULT_NOISE_FIGURE_DB,
    THERMAL_NOISE_DBM_PER_HZ,
    WIFI_SAMPLE_RATE_20MHZ,
)
from repro.dsp.noise import complex_gaussian
from repro.dsp.signal_ops import dbm_to_watts, mix
from repro.wifi.channels import wifi_channel_frequency


def noise_floor_watts(bandwidth_hz, noise_figure_db=DEFAULT_NOISE_FIGURE_DB):
    """Receiver noise power over ``bandwidth_hz`` in watts."""
    dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(dbm_to_watts(dbm))


class WifiFrontEnd:
    """Brings passband signals into the WiFi receiver's sampled baseband.

    Power convention matches :class:`repro.zigbee.ZigBeeTransmitter`:
    waveform mean power is in watts.  ``thermal_noise`` adds the receiver's
    own noise floor over the full sampling bandwidth, which is what makes a
    2 MHz ZigBee signal pay the paper's wideband-listening SNR penalty.
    """

    def __init__(
        self,
        channel=1,
        sample_rate=WIFI_SAMPLE_RATE_20MHZ,
        noise_figure_db=DEFAULT_NOISE_FIGURE_DB,
    ):
        self.channel = channel
        self.center_frequency = wifi_channel_frequency(channel)
        self.sample_rate = float(sample_rate)
        self.noise_figure_db = float(noise_figure_db)

    @property
    def noise_power_watts(self):
        """Noise floor over the full sampled bandwidth."""
        return noise_floor_watts(self.sample_rate, self.noise_figure_db)

    def frequency_offset(self, source_center_frequency):
        """Offset at which a source appears in this receiver's baseband."""
        return source_center_frequency - self.center_frequency

    def downconvert(self, waveform, source_center_frequency, initial_phase=0.0):
        """Mix a source's complex-baseband waveform into WiFi baseband.

        ``waveform`` must already be sampled at this front-end's rate (the
        modulators in this repo render at the receiver rate directly, which
        sidesteps resampling artefacts in the cross-observability study).
        """
        offset = self.frequency_offset(source_center_frequency)
        return mix(waveform, offset, self.sample_rate, initial_phase=initial_phase)

    def capture(self, contributions, n_samples, rng=None, include_noise=True):
        """Assemble one baseband capture from multiple on-air sources.

        ``contributions`` is an iterable of ``(waveform, start_index,
        source_center_frequency)`` tuples; each is downconverted and added
        at its start offset, then receiver noise is applied.  Waveforms
        falling partly outside the capture are clipped.
        """
        # Start from the noise floor and add signals into it (float
        # addition commutes, so per-sample sums match noise-last order).
        if include_noise:
            if rng is None:
                raise ValueError("rng is required when include_noise=True")
            out = complex_gaussian(int(n_samples), self.noise_power_watts, rng)
        else:
            out = np.zeros(int(n_samples), dtype=np.complex128)
        for waveform, start, f_center in contributions:
            shifted = self.downconvert(np.asarray(waveform), f_center)
            start = int(start)
            if start >= out.size or start + shifted.size <= 0:
                continue
            src_lo = max(0, -start)
            dst_lo = max(0, start)
            span = min(shifted.size - src_lo, out.size - dst_lo)
            out[dst_lo : dst_lo + span] += shifted[src_lo : src_lo + span]
        return out
