"""IEEE 802.15.4 (2.4 GHz O-QPSK PHY) substrate.

Everything the SymBee sender side relies on: the symbol-to-chip DSSS table
(paper Table I), the O-QPSK half-sine modulator whose waveform is
cross-observed at WiFi, PHY/MAC framing, and a coherent receiver used for
the cross-technology-broadcast path (paper Section VI-A) and the baselines.
"""

from repro.zigbee.symbols import (
    CHIP_TABLE,
    chips_for_symbol,
    bytes_to_symbols,
    symbols_to_bytes,
)
from repro.zigbee.crc import crc16_itut, append_fcs, check_fcs
from repro.zigbee.dsss import spread, despread
from repro.zigbee.oqpsk import OqpskModulator, OqpskDemodulator
from repro.zigbee.frame import PhyFrame, build_ppdu_symbols
from repro.zigbee.mac import MacFrame
from repro.zigbee.channels import (
    ZIGBEE_CHANNELS,
    zigbee_channel_frequency,
    overlapping_wifi_channels,
)
from repro.zigbee.csma import CsmaCa, CsmaOutcome
from repro.zigbee.transmitter import ZigBeeTransmitter
from repro.zigbee.receiver import ZigBeeReceiver

__all__ = [
    "CHIP_TABLE",
    "chips_for_symbol",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "crc16_itut",
    "append_fcs",
    "check_fcs",
    "spread",
    "despread",
    "OqpskModulator",
    "OqpskDemodulator",
    "PhyFrame",
    "build_ppdu_symbols",
    "MacFrame",
    "ZIGBEE_CHANNELS",
    "zigbee_channel_frequency",
    "overlapping_wifi_channels",
    "CsmaCa",
    "CsmaOutcome",
    "ZigBeeTransmitter",
    "ZigBeeReceiver",
]
