"""AdaComm-style FEC and fragment-size adaptation.

The receiver tracks channel quality from the decoder's vote margins
(:class:`repro.core.adaptive.WindowedLinkQuality` — soft information the
majority-vote decoder produces for free) and feeds a 4-bit quantized
summary back in every ACK record.  The sender dequantizes it into a BER
estimate and picks, per transmission, the FEC scheme maximizing expected
transport goodput; per message, it also picks the fragment size (which
fixes the strongest scheme the message's fragments can ever use).

The goodput model extends :class:`repro.core.adaptive.AdaptiveCoding`'s
frame-level reasoning to three schemes (uncoded, Hamming(7,4), K=7
convolutional) and to transport framing: a fragment survives only if
both its uncoded implicit header fields (frame type + sequence byte, 12
bits) and its FEC-protected PDU decode cleanly, and schemes differ in
air time, so the comparison is ``payload_bits * P(success) / airtime``
rather than a pure rate product.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import SYMBEE_STABLE_WINDOW_20MHZ
from repro.core.analytics import ber_from_phase_error
from repro.core.frame import frame_airtime_s
from repro.transport.pdu import (
    NOMINAL_PAYLOAD_BITS,
    PDU_OVERHEAD_BITS,
    SCHEME_CONV,
    SCHEME_HAMMING,
    SCHEME_NONE,
    _coded_bits,
)

#: Uncoded header bits a fragment rides on (frame type + sequence byte);
#: the frame's version/length fields are also uncoded but their
#: corruption is overwhelmingly caught by the same inner checksum, so
#: the dominant uncoded exposure is these 12 bits.
UNCODED_HEADER_BITS = 12

_QUALITY_LEVELS = 16

#: Quantizer range.  The 84-vote majority drives the post-decoder BER
#: through its waterfall as the per-value error rate Pr_eps crosses
#: roughly 0.25..0.45, so the 4 feedback bits are spent there rather
#: than on the flat region below (every Pr_eps under 0.2 means "clean").
_PR_MIN = 0.2
_PR_MAX = 0.5
_PR_STEP = (_PR_MAX - _PR_MIN) / _QUALITY_LEVELS


def quantize_quality(phase_error_probability):
    """Pr_eps -> 4-bit feedback value (uniform over the waterfall)."""
    pr = float(phase_error_probability)
    return min(_QUALITY_LEVELS - 1, max(0, int((pr - _PR_MIN) / _PR_STEP)))


def dequantize_quality(quality):
    """4-bit feedback value -> Pr_eps (bin centre; bin 0 means clean)."""
    if int(quality) == 0:
        return 0.0
    return _PR_MIN + (int(quality) + 0.5) * _PR_STEP


def quality_to_ber(quality, window=SYMBEE_STABLE_WINDOW_20MHZ):
    """BER estimate implied by a quantized feedback value (Eq. 2)."""
    return ber_from_phase_error(dequantize_quality(quality), window=window)


@dataclass(frozen=True)
class TransportDecision:
    """One policy evaluation: chosen scheme plus the evidence."""

    scheme: int
    fragment_bits: int
    estimated_ber: float
    goodputs: dict              # scheme id -> expected payload bits/s
    informed: bool              # False while running on the prior


class TransportPolicy:
    """Goodput-maximizing scheme selection with a robustness-first prior.

    Until the first valid quality feedback arrives the policy assumes
    the worst (the strongest feasible scheme) — the AdaComm stance that
    a cold link must earn the right to run fast, not the other way
    around.
    """

    #: Above this estimated BER the analytic goodput models (notably the
    #: convolutional union bound) are outside their validity region and
    #: every option scores ~0; ranking noise there is meaningless, so
    #: the policy falls back to the strongest feasible scheme.
    PANIC_BER = 0.12

    def __init__(self, window=SYMBEE_STABLE_WINDOW_20MHZ):
        self.window = int(window)
        self._quality = None

    # -- feedback -------------------------------------------------------------

    def on_quality(self, quality):
        """Absorb a 4-bit quality observation from an ACK record."""
        self._quality = int(quality)

    @property
    def informed(self):
        return self._quality is not None

    @property
    def estimated_ber(self):
        """Current BER estimate (worst case while uninformed)."""
        if self._quality is None:
            return 0.5
        return quality_to_ber(self._quality, window=self.window)

    # -- goodput model --------------------------------------------------------

    def _success_probability(self, scheme, payload_bits, ber):
        pdu = PDU_OVERHEAD_BITS + payload_bits
        header_ok = (1.0 - ber) ** UNCODED_HEADER_BITS
        if scheme == SCHEME_NONE:
            return header_ok * (1.0 - ber) ** pdu
        if scheme == SCHEME_HAMMING:
            block_ok = (1.0 - ber) ** 7 + 7 * ber * (1.0 - ber) ** 6
            return header_ok * block_ok ** ((pdu + 3) // 4)
        # K=7 conv: dominant union-bound term (d_free=10, a_dfree=11).
        p = min(max(ber, 0.0), 0.5)
        p_out = min(1.0, 11.0 * (2.0 * np.sqrt(p * (1.0 - p))) ** 10)
        return header_ok * (1.0 - p_out) ** pdu

    def _goodput(self, scheme, payload_bits, ber):
        airtime = frame_airtime_s(
            _coded_bits(scheme, PDU_OVERHEAD_BITS + payload_bits)
        )
        return (
            payload_bits * self._success_probability(scheme, payload_bits, ber)
            / airtime
        )

    # -- decisions ------------------------------------------------------------

    def decide_scheme(self, feasible, payload_bits):
        """Best scheme for one transmission of a ``payload_bits`` fragment.

        ``feasible`` is the scheme-id tuple from
        :func:`repro.transport.pdu.feasible_schemes` — the fragment's
        size was fixed at segmentation time, so only schemes that still
        fit it are on the table.
        """
        if not feasible:
            raise ValueError("no feasible scheme for this fragment size")
        ber = self.estimated_ber
        goodputs = {s: self._goodput(s, payload_bits, ber) for s in feasible}
        if not self.informed or ber >= self.PANIC_BER:
            scheme = max(feasible)  # strongest feasible: robustness first
        else:
            scheme = max(goodputs, key=goodputs.get)
        return TransportDecision(
            scheme=scheme,
            fragment_bits=payload_bits,
            estimated_ber=ber,
            goodputs=goodputs,
            informed=self.informed,
        )

    def decide_fragmentation(self):
        """Scheme + fragment size for a *new* message.

        Evaluates each scheme at its own nominal (capacity-filling)
        fragment size; the winner's size becomes the message's uniform
        fragment size, which in turn bounds how far later per-attempt
        decisions can escalate.
        """
        ber = self.estimated_ber
        goodputs = {
            s: self._goodput(s, NOMINAL_PAYLOAD_BITS[s], ber)
            for s in (SCHEME_NONE, SCHEME_HAMMING, SCHEME_CONV)
        }
        if not self.informed or ber >= self.PANIC_BER:
            scheme = SCHEME_CONV
        else:
            scheme = max(goodputs, key=goodputs.get)
        return TransportDecision(
            scheme=scheme,
            fragment_bits=NOMINAL_PAYLOAD_BITS[scheme],
            estimated_ber=ber,
            goodputs=goodputs,
            informed=self.informed,
        )
