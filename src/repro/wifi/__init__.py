"""IEEE 802.11 (WiFi) substrate.

SymBee never demodulates WiFi frames; what it needs from the WiFi side is
(1) the RF front-end that carries a ZigBee passband signal into WiFi
baseband samples, and (2) the autocorrelation-based idle-listening module
whose phase-difference output SymBee recycles.  The OFDM transmitter
exists so idle-listening can be validated against real WiFi preambles and
so the interference experiments (paper Sections VIII-E) can mix in
standard-shaped 802.11g bursts.
"""

from repro.wifi.channels import WIFI_CHANNELS, wifi_channel_frequency
from repro.wifi.front_end import WifiFrontEnd, noise_floor_watts
from repro.wifi.idle_listening import (
    IdleListening,
    phase_differences,
    autocorrelation_metric,
)
from repro.wifi.ofdm import L_LTF, L_STF, OfdmTransmitter
from repro.wifi.receiver import OfdmReceiver, OfdmReception

__all__ = [
    "WIFI_CHANNELS",
    "wifi_channel_frequency",
    "WifiFrontEnd",
    "noise_floor_watts",
    "IdleListening",
    "phase_differences",
    "autocorrelation_metric",
    "OfdmTransmitter",
    "OfdmReceiver",
    "OfdmReception",
    "L_STF",
    "L_LTF",
]
