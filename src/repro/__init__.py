"""SymBee: symbol-level ZigBee-to-WiFi cross-technology communication.

Reproduction of Wang, Kim & He, "Symbol-level Cross-technology
Communication via Payload Encoding", ICDCS 2018.

Public API tour:

* :mod:`repro.core` — the SymBee encoder/decoder, preamble capture,
  Hamming coding, framing, the end-to-end :class:`~repro.core.SymBeeLink`,
  and the analytical models.
* :mod:`repro.zigbee` — full 802.15.4 O-QPSK PHY + minimal MAC.
* :mod:`repro.wifi` — WiFi front end, idle listening, 802.11g OFDM.
* :mod:`repro.channel` — path loss, fading, interference, scenarios.
* :mod:`repro.baselines` — packet-level CTC comparison schemes.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["SymBeeEncoder", "SymBeeDecoder", "SymBeeLink", "__version__"]


def __getattr__(name):
    # Resolved on first use, so importing the package loads no numpy:
    # ``python -m repro`` pins BLAS threads before numpy starts (see
    # repro.__main__).
    if name in ("SymBeeEncoder", "SymBeeDecoder", "SymBeeLink"):
        import repro.core

        return getattr(repro.core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
