"""Multi-sender traffic synthesis for the streaming receive engine.

:class:`StreamTraffic` renders what a continuously listening WiFi
receiver actually sees: N SymBee senders, each generating readings as a
Poisson process, their 802.15.4 packets modulated at their own ZigBee
channel frequencies, summed into one baseband capture by the shared
:class:`repro.wifi.front_end.WifiFrontEnd` (with its noise floor), then
sliced into fixed-size blocks.  Senders on *different* ZigBee channels
may overlap in time — that concurrency is exactly what the engine's
demux mode decodes; senders sharing a channel are serialized on a
per-channel timeline (polite CSMA), because co-channel overlap is a
collision no receiver could untangle.

The schedule doubles as ground truth: every
:class:`ScheduledTransmission` records the sender, sequence, data bits
and sample offsets, so tests and the ``repro listen`` CLI can score
decoded frames against what was actually sent.

Seeded-RNG contract: this module draws randomness *only* from the
``rng`` generator passed explicitly to :meth:`StreamTraffic.schedule` /
:meth:`StreamTraffic.capture` — arrival gaps, payload bits, channel
fading and front-end noise all share that one stream, and nothing here
touches the global ``numpy.random`` state.  Two captures from
identically seeded generators are sample-identical regardless of what
any other code seeded globally (regression-tested in
``tests/test_network.py``).
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_TX_POWER_DBM, WIFI_SAMPLE_RATE_20MHZ
from repro.core.encoder import SymBeeEncoder
from repro.core.frame import build_frame_bits
from repro.wifi.front_end import WifiFrontEnd
from repro.zigbee.transmitter import ZigBeeTransmitter


@dataclass(frozen=True)
class StreamSender:
    """One SymBee sensor feeding the stream.

    By default each transmission carries ``data_bits`` random bits in a
    DATA frame.  ``frames`` overrides that with a scripted sequence of
    ``(data_bits, frame_type, sequence)`` tuples — exactly what
    :func:`repro.transport.pdu.encode_fragment` returns, so transport
    fragments script directly — sent in order at the sender's arrival
    process; the sender falls silent once the script is exhausted.
    """

    sender_id: int
    zigbee_channel: int = 13
    reading_interval_s: float = 0.005
    data_bits: int = 16
    distance_m: float = 5.0
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    frames: tuple = ()


@dataclass(frozen=True)
class ScheduledTransmission:
    """Ground truth for one on-air SymBee frame."""

    sender_id: int
    zigbee_channel: int
    sequence: int
    start_sample: int
    n_samples: int
    data_bits: tuple
    frame_bits: tuple

    @property
    def end_sample(self):
        return self.start_sample + self.n_samples


class StreamTraffic:
    """Synthesizes a seeded multi-sender baseband stream + ground truth."""

    #: The WiFi receiver's 20 MHz sampling.
    sample_rate = WIFI_SAMPLE_RATE_20MHZ
    #: Idle samples enforced between same-channel transmissions and
    #: before the capture's end, so scheduled frames decode whole.
    guard_samples = 4096
    #: First allowed transmission start (receiver warm-up).
    lead_in_samples = 2000
    #: Captures carry the front end's noise floor.
    include_noise = True

    def __init__(self, senders, wifi_channel=1, duration_s=0.05, scenario=None):
        self.senders = list(senders)
        if not self.senders:
            raise ValueError("need at least one sender")
        self.duration_s = float(duration_s)
        self.total_samples = int(round(self.duration_s * self.sample_rate))
        self.scenario = scenario
        self.front_end = WifiFrontEnd(
            channel=wifi_channel, sample_rate=self.sample_rate
        )
        self.encoder = SymBeeEncoder()
        self._transmitters = {
            s.sender_id: ZigBeeTransmitter(
                channel=s.zigbee_channel,
                tx_power_dbm=s.tx_power_dbm,
                sample_rate=self.sample_rate,
            )
            for s in self.senders
        }

    # -- schedule -----------------------------------------------------------

    def schedule(self, rng):
        """Poisson arrivals per sender, serialized per ZigBee channel.

        Returns ``(transmissions, contributions)``: the ground-truth
        records and the ``(waveform, start, f_center)`` tuples the front
        end sums.  Arrivals whose frame would not fit (plus guard) before
        the capture ends are dropped — the stream simply ends mid-idle,
        never mid-frame.
        """
        arrivals = []
        for sender in self.senders:
            clock = self.lead_in_samples / self.sample_rate + float(
                rng.exponential(sender.reading_interval_s)
            )
            while clock < self.duration_s:
                arrivals.append((clock, sender))
                clock += float(rng.exponential(sender.reading_interval_s))
        arrivals.sort(key=lambda item: item[0])

        transmissions = []
        contributions = []
        channel_free_at = {}
        sequences = {}
        for clock, sender in arrivals:
            sequence = sequences.get(sender.sender_id, 0)
            if sender.frames:
                if sequence >= len(sender.frames):
                    continue  # script exhausted; sender is done
                data_bits, frame_type, frame_sequence = sender.frames[sequence]
                data_bits = tuple(int(b) for b in data_bits)
                frame_bits = tuple(
                    build_frame_bits(
                        list(data_bits),
                        sequence=int(frame_sequence) & 0xFF,
                        frame_type=int(frame_type),
                    )
                )
            else:
                data_bits = tuple(
                    int(b) for b in rng.integers(0, 2, sender.data_bits)
                )
                frame_bits = tuple(
                    build_frame_bits(list(data_bits), sequence=sequence & 0xFF)
                )
            payload = self.encoder.encode_message(frame_bits)
            transmitter = self._transmitters[sender.sender_id]
            frame = transmitter.build_frame(
                payload, sequence=sequence & 0xFF
            )
            waveform = transmitter.transmit_frame(frame)
            if self.scenario is not None:
                link = self.scenario.link(
                    sender.distance_m, sample_rate=self.sample_rate
                )
                waveform = link.apply(waveform, rng)

            start = int(round(clock * self.sample_rate))
            floor = channel_free_at.get(sender.zigbee_channel, 0)
            start = max(start, floor)
            if start + waveform.size + self.guard_samples > self.total_samples:
                continue
            channel_free_at[sender.zigbee_channel] = (
                start + waveform.size + self.guard_samples
            )
            sequences[sender.sender_id] = sequence + 1
            transmissions.append(
                ScheduledTransmission(
                    sender_id=sender.sender_id,
                    zigbee_channel=sender.zigbee_channel,
                    sequence=sequence,
                    start_sample=start,
                    n_samples=int(waveform.size),
                    data_bits=data_bits,
                    frame_bits=frame_bits,
                )
            )
            contributions.append(
                (waveform, start, transmitter.center_frequency)
            )
        return transmissions, contributions

    # -- rendering ----------------------------------------------------------

    def capture(self, rng):
        """Render the full baseband capture; returns ``(samples, truth)``."""
        transmissions, contributions = self.schedule(rng)
        samples = self.front_end.capture(
            contributions,
            self.total_samples,
            rng=rng,
            include_noise=self.include_noise,
        )
        return samples, transmissions

    def blocks(self, samples, block_size):
        """Slice a capture into fixed-size blocks (last one may be short)."""
        block_size = int(block_size)
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        for lo in range(0, samples.size, block_size):
            yield samples[lo : lo + block_size]
