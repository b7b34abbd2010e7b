"""Link adaptation on top of SymBee (extension beyond the paper).

The paper's decoder throws away useful soft information: each decoded
bit comes with a vote count out of 84 whose distance from the 42-vote
boundary measures link quality.  This module turns those counts into a
live BER estimate and drives a simple rate-adaptation policy — enable
Hamming(7,4) (paying the 4/7 rate) only when the estimated BER says the
coding gain is worth it.  This is the natural "link layer coding" follow
up the paper's Section VIII-E gestures at.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.constants import SYMBEE_STABLE_WINDOW_20MHZ
from repro.core.analytics import ber_from_phase_error
from repro.core.coding import code_rate


class LinkQualityEstimator:
    """Estimates per-value phase error probability from vote counts.

    A bit decoded as 1 with ``count`` nonnegative votes out of ``window``
    had ``window - count`` erroneous values (and symmetrically for 0), so
    the pooled error fraction across bits estimates Pr_eps, from which
    Eq. 2 gives the operating BER.
    """

    def __init__(self, window=SYMBEE_STABLE_WINDOW_20MHZ):
        self.window = int(window)
        self._errors = 0
        self._values = 0

    def observe(self, decoded_bits, counts):
        """Fold one frame's decode into the estimate.

        Vectorized: a decoded 1 contributes ``window - count`` erroneous
        values and a decoded 0 contributes ``count``, summed in one numpy
        reduction over the frame instead of a per-bit Python loop.
        """
        bits = np.asarray(decoded_bits)
        counts = np.asarray(counts)
        n = min(bits.size, counts.size)
        if n == 0:
            return
        bits, counts = bits[:n], counts[:n]
        errors = np.where(bits == 1, self.window - counts, counts)
        self._errors += int(errors.sum())
        self._values += self.window * n

    @property
    def samples(self):
        return self._values

    @property
    def phase_error_probability(self):
        """Pooled Pr_eps estimate (0.5 prior when unobserved)."""
        if self._values == 0:
            return 0.5
        return self._errors / self._values

    @property
    def estimated_ber(self):
        """Eq.-2 BER implied by the current Pr_eps estimate."""
        return ber_from_phase_error(
            min(self.phase_error_probability, 1.0), window=self.window
        )

    def reset(self):
        self._errors = 0
        self._values = 0


class WindowedLinkQuality(LinkQualityEstimator):
    """Sliding-window variant tracking *time-varying* channels.

    The pooled estimator above converges on the long-run average — the
    right tool for a stationary link, and exactly the wrong one for the
    bursty, ramping channels AdaComm showed dominate CTC deployments: an
    hour-old clean spell would forever mask a fade happening now.  This
    variant pools only the most recent ``max_frames`` frames, so the
    estimate follows the channel with a bounded memory; it is the
    tracker behind ``repro.transport``'s per-session rate adaptation.
    """

    def __init__(self, window=SYMBEE_STABLE_WINDOW_20MHZ, max_frames=24):
        super().__init__(window=window)
        if max_frames < 1:
            raise ValueError("max_frames must be positive")
        self.max_frames = int(max_frames)
        self._frames = deque()

    def observe(self, decoded_bits, counts):
        before_e, before_v = self._errors, self._values
        super().observe(decoded_bits, counts)
        self._frames.append(
            (self._errors - before_e, self._values - before_v)
        )
        while len(self._frames) > self.max_frames:
            errors, values = self._frames.popleft()
            self._errors -= errors
            self._values -= values

    @property
    def frames(self):
        """Frames currently inside the window."""
        return len(self._frames)

    def reset(self):
        super().reset()
        self._frames.clear()


@dataclass(frozen=True)
class CodingDecision:
    """What the policy chose and why."""

    use_coding: bool
    estimated_ber: float
    goodput_uncoded: float      # expected delivered data bits per airtime bit
    goodput_coded: float


class AdaptiveCoding:
    """Chooses Hamming(7,4) on/off to maximize expected *frame* goodput.

    Frames are all-or-nothing (the CRC rejects any residual error), so
    per airtime bit the uncoded link delivers ``(1-BER)^L`` and the coded
    link ``(4/7) * block_ok^(L/4)`` with ``block_ok`` the probability a
    (7,4) block survives (at most one of its 7 bits errs).  Rate-4/7
    never wins a *per-bit* comparison — its value is exactly that frames
    survive, which is why the policy reasons at frame granularity.
    """

    def __init__(self, frame_bits=48, min_samples=84 * 8):
        if frame_bits <= 0 or frame_bits % 4 != 0:
            raise ValueError("frame_bits must be a positive multiple of 4")
        #: Data bits per frame the link transports.
        self.frame_bits = int(frame_bits)
        #: Votes to accumulate before trusting the estimate.
        self.min_samples = int(min_samples)

    def _uncoded_goodput(self, ber):
        return (1.0 - ber) ** self.frame_bits

    def _coded_goodput(self, ber):
        block_ok = (1 - ber) ** 7 + 7 * ber * (1 - ber) ** 6
        return code_rate() * block_ok ** (self.frame_bits // 4)

    def decide(self, estimator):
        """Policy decision from the current estimate.

        Before enough evidence accumulates the safe default is coding on
        (robustness first, as the paper's Figure 21 recommends).
        """
        ber = estimator.estimated_ber
        uncoded = self._uncoded_goodput(ber)
        coded = self._coded_goodput(ber)
        if estimator.samples < self.min_samples:
            return CodingDecision(
                use_coding=True,
                estimated_ber=ber,
                goodput_uncoded=uncoded,
                goodput_coded=coded,
            )
        return CodingDecision(
            use_coding=coded > uncoded,
            estimated_ber=ber,
            goodput_uncoded=uncoded,
            goodput_coded=coded,
        )

