"""End-to-end ZigBee transmitter: payload bytes to complex baseband.

The output waveform is centred at the ZigBee channel frequency; carrying
it to a WiFi receiver's baseband (including the centre-frequency offset)
is the front-end's job (:mod:`repro.wifi.front_end`).
"""

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.dsp.signal_ops import dbm_to_watts, scale_to_power, signal_power
from repro.zigbee.frame import build_ppdu_symbols
from repro.zigbee.mac import MacFrame
from repro.zigbee.oqpsk import OqpskModulator


class ZigBeeTransmitter:
    """Builds and modulates complete 802.15.4 packets.

    Power convention: the emitted waveform's mean power equals the transmit
    power in *watts* (so 0 dBm -> 1 mW -> mean |x|^2 = 1e-3).  Channel
    models then subtract path loss in dB to get received power, and the
    noise floor is computed in the same absolute units.
    """

    def __init__(
        self,
        channel=13,
        tx_power_dbm=0.0,
        sample_rate=WIFI_SAMPLE_RATE_20MHZ,
        nibble_order="low-first",
    ):
        from repro.zigbee.channels import zigbee_channel_frequency

        self.channel = channel
        self.center_frequency = zigbee_channel_frequency(channel)
        self.tx_power_dbm = float(tx_power_dbm)
        self.nibble_order = nibble_order
        self.modulator = OqpskModulator(sample_rate)
        self._sequence = 0

    @property
    def sample_rate(self):
        return self.modulator.sample_rate

    def next_sequence(self):
        """Monotonically increasing 8-bit MAC sequence number."""
        seq = self._sequence
        self._sequence = (self._sequence + 1) & 0xFF
        return seq

    def build_frame(self, payload, **mac_fields):
        """Wrap ``payload`` in a MAC data frame with the next sequence."""
        mac_fields.setdefault("sequence", self.next_sequence())
        return MacFrame(payload=payload, **mac_fields)

    def waveform_for_psdu(self, psdu):
        """Modulate a raw PSDU (PPDU framing added here).

        Every call renders the frame through the O-QPSK segment table
        and returns a fresh, writable array scaled to the transmit power.
        """
        symbols = build_ppdu_symbols(psdu, nibble_order=self.nibble_order)
        waveform = self.modulator.modulate_symbols(symbols)
        p = signal_power(waveform)
        if p == 0.0:
            return scale_to_power(waveform, dbm_to_watts(self.tx_power_dbm))
        # scale_to_power, but in place on the freshly rendered buffer.
        waveform *= np.sqrt(dbm_to_watts(self.tx_power_dbm) / p)
        return waveform

    def transmit(self, payload, **mac_fields):
        """Payload bytes -> (MacFrame, complex baseband waveform)."""
        frame = self.build_frame(payload, **mac_fields)
        return frame, self.waveform_for_psdu(frame.to_psdu())

    def transmit_frame(self, frame):
        """Modulate an already-built :class:`MacFrame`."""
        return self.waveform_for_psdu(frame.to_psdu())

    def packet_duration(self, payload_length):
        """On-air seconds for a packet with ``payload_length`` MAC payload."""
        from repro.zigbee.frame import ppdu_duration_seconds
        from repro.zigbee.mac import MAC_OVERHEAD_BYTES

        return ppdu_duration_seconds(payload_length + MAC_OVERHEAD_BYTES)

    @staticmethod
    def silence(n_samples):
        """Convenience: a block of idle channel time."""
        return np.zeros(int(n_samples), dtype=np.complex128)
