"""SymBee decoding at the WiFi receiver (paper Sections IV-C, V, VI-B).

Two modes, both operating on the idle-listening phase stream:

* **Unsynchronized** (Section IV-C): slide a window of 84 phase values
  (168 at 40 Msps); if at least ``84 - tau`` are negative the window holds
  a SymBee bit 0, if at least ``84 - tau`` are nonnegative a bit 1, else
  nothing.  Consecutive firing windows belonging to the same plateau are
  clustered into one detection.
* **Synchronized** (Section V): once the preamble fixes bit timing, only
  the 84 samples at each expected bit position are examined and decoding
  becomes majority voting with ``tau_sync = 42`` (half the window).
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    SYMBEE_BIT_PERIOD_20MHZ,
    SYMBEE_DEFAULT_TAU,
    SYMBEE_STABLE_PHASE,
    SYMBEE_STABLE_WINDOW_20MHZ,
    WIFI_AUTOCORR_LAG_20MHZ,
    WIFI_SAMPLE_RATE_20MHZ,
)
from repro.core.phase import compensate_cfo
from repro.dsp.runs import sliding_count
from repro.obs.metrics import REGISTRY
from repro.wifi.idle_listening import phase_differences

#: Distance of each synchronized vote count from the majority threshold
#: (0 = coin flip, window/2 = unanimous); 84 covers the 40 Msps window.
_VOTE_MARGIN = REGISTRY.histogram(
    "decoder.vote_margin", edges=(0, 2, 5, 10, 15, 21, 28, 42, 63, 84)
)
#: Same-sign run lengths in the decoded phase stream; the plateaus the
#: decoder votes on are ~84 samples (168 at 40 Msps), a bit period 640.
_PHASE_RUN_LENGTH = REGISTRY.histogram(
    "decoder.phase_run_length",
    edges=(1, 2, 4, 8, 16, 32, 64, 84, 168, 320, 640, 1280),
)
_BITS_DECODED = REGISTRY.counter("decoder.bits_decoded")


def observe_sync_decode(nonneg, counts, tau_sync):
    """Record a synchronized decode's diagnostics (call with the registry on).

    ``nonneg`` is the decoded segment's nonnegative-phase mask, and
    ``counts`` the integer vote count of every decoded bit.  Feeds the
    sign-run-length distribution of the segment — the paper's diagnostic
    for plateau quality (long ~window runs = clean plateaus, short runs
    = noise flips) — and each bit's vote margin.  The native stream
    session bins the same diagnostics itself, on these histograms'
    edges (:mod:`repro.stream.session`).
    """
    if nonneg.size:
        changes = np.flatnonzero(nonneg[1:] != nonneg[:-1]) + 1
        boundaries = np.concatenate(([0], changes, [nonneg.size]))
        _PHASE_RUN_LENGTH.observe_array(np.diff(boundaries))
    if counts.size:
        _BITS_DECODED.inc(counts.size)
        _VOTE_MARGIN.observe_array(np.abs(counts.astype(np.int64) - tau_sync))


@dataclass(frozen=True)
class BitDetection:
    """One unsynchronized bit detection.

    ``index`` is the first phase-stream index of the qualifying window
    cluster; ``count`` is the cluster's extreme nonnegative count (high
    for bit 1, low for bit 0).
    """

    index: int
    bit: int
    count: int


@dataclass(frozen=True)
class SyncDecodeResult:
    """Synchronized decode of a run of bits at fixed spacing."""

    bits: tuple
    counts: tuple          # nonnegative phase values per bit window
    positions: tuple       # phase-stream index of each bit window


class SymBeeDecoder:
    """Thresholding decoder over the recycled idle-listening phases."""

    def __init__(
        self,
        sample_rate=WIFI_SAMPLE_RATE_20MHZ,
        tau=None,
        tau_sync=None,
        cfo_correction=SYMBEE_STABLE_PHASE,
        decimation=1,
    ):
        scale = sample_rate / WIFI_SAMPLE_RATE_20MHZ
        if scale not in (1.0, 2.0):
            raise ValueError("sample_rate must be 20 or 40 Msps")
        scale = int(scale)
        self.sample_rate = float(sample_rate)
        #: Front-end decimation this decoder's stream was produced at: a
        #: decimating channelizer (``repro.stream``) hands over products
        #: formed on a ``decimation``-times slower sub-band stream, so
        #: every per-sample quantity below shrinks by the same factor.
        #: Must divide the lag and the bit period exactly (1, 2, 4 or 8
        #: at 20 Msps; additionally 16 at 40 Msps).  The vote window is
        #: *floored* when it does not divide evenly (84 -> 10 at
        #: decimation 8): voting then covers the first ``window *
        #: decimation`` full-rate positions of the stable plateau, which
        #: only trims the tail of the plateau and keeps the majority
        #: vote well-defined.
        self.decimation = int(decimation)
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        lag = WIFI_AUTOCORR_LAG_20MHZ * scale
        window = SYMBEE_STABLE_WINDOW_20MHZ * scale
        bit_period = SYMBEE_BIT_PERIOD_20MHZ * scale
        if lag % self.decimation or bit_period % self.decimation:
            raise ValueError(
                f"decimation {self.decimation} must divide the lag ({lag}) "
                f"and bit period ({bit_period}); at "
                f"{sample_rate / 1e6:g} Msps the valid factors are the "
                f"divisors of {np.gcd.reduce([lag, bit_period])}"
            )
        #: Autocorrelation lag (16 at 20 Msps, 32 at 40 Msps), divided by
        #: the decimation factor (the 0.8 us lag spans fewer samples).
        self.lag = lag // self.decimation
        #: Stable-plateau window length (84 / 168), decimation-scaled
        #: with flooring when the plateau does not divide evenly.
        self.window = window // self.decimation
        #: Phase samples between consecutive SymBee bits (640 / 1280,
        #: decimation-scaled).
        self.bit_period = bit_period // self.decimation
        #: Error tolerance of the unsynchronized detector; the paper's
        #: operating point (tau = 10 at 20 Msps) scales with the window.
        if tau is None:
            self.tau = max(1, SYMBEE_DEFAULT_TAU * scale // self.decimation)
        else:
            self.tau = int(tau)
        if not 0 <= self.tau < self.window // 2:
            raise ValueError("tau must be in [0, window/2)")
        #: Majority threshold for synchronized decoding (window / 2).
        self.tau_sync = self.window // 2 if tau_sync is None else int(tau_sync)
        #: Appendix-B constant added to every phase before thresholding;
        #: ``None`` disables compensation (already-compensated input).
        self.cfo_correction = cfo_correction

    # -- phase extraction ---------------------------------------------------

    def phases(self, samples):
        """Compensated dp stream for a baseband capture."""
        dp = phase_differences(samples, self.lag)
        if self.cfo_correction is None or self.cfo_correction == 0.0:
            return dp
        return compensate_cfo(dp, self.cfo_correction)

    @staticmethod
    def raw_products(samples, lag):
        """Uncompensated autocorrelation products ``x[n] * conj(x[n+lag])``.

        The channel-agnostic half of :meth:`phasor_stream` — everything
        before the CFO rotation.  Each product depends only on the two
        samples it pairs, so computing the stream block-by-block (with a
        ``lag``-sample tail carried across blocks, as
        the exact ``repro.stream.StreamingFrontEnd`` does) is
        bit-identical to one
        whole-capture call.  Returns ``complex128`` of length
        ``max(0, len(samples) - lag)``.
        """
        samples = np.asarray(samples)
        if lag <= 0:
            raise ValueError("lag must be positive")
        if samples.size <= lag:
            return np.empty(0, dtype=np.complex128)
        # conjugate() allocates the output; finish in place on it.
        prod = np.conjugate(samples[lag:]).astype(np.complex128, copy=False)
        prod *= samples[:-lag]
        return prod

    @property
    def rotation(self):
        """Unit phasor ``exp(j*cfo_correction)``, or ``None`` when disabled.

        Multiplying raw products by this constant is exactly the
        compensation step of :meth:`phasor_stream`; streaming sessions
        apply it per block (``block * rotation`` matches the batch
        in-place ``stream *= rotation`` elementwise).
        """
        c = self.cfo_correction
        if c is None or c == 0.0:
            return None
        return complex(np.cos(c), np.sin(c))

    def phasor_stream(self, samples):
        """CFO-compensated autocorrelation products (the phasor-domain dp).

        ``out[n] = x[n] * conj(x[n + lag]) * exp(j * cfo_correction)``, so
        ``angle(out)`` equals :meth:`phases` (up to the wrap convention at
        exactly +-pi) without ever leaving the complex domain.  The fast
        decode path runs entirely on this stream: a sample's phase is
        nonnegative iff ``out[n].imag >= 0`` (``angle`` is 0 or pi on the
        real axis, both nonnegative), and unit phasors for preamble
        folding are ``out / |out|`` instead of ``exp(j*angle(out))``,
        skipping two transcendental passes per capture.
        """
        prod = self.raw_products(samples, self.lag)
        r = self.rotation
        if r is not None:
            prod *= r
        return prod

    def unit_phasors(self, phasor_stream):
        """Normalize a phasor stream to unit magnitude.

        Zero-amplitude samples (exact silence) take the phasor of phase
        zero **after** CFO compensation — ``exp(j*cfo_correction)`` —
        matching what ``exp(j*phases)`` yields there, so the phasor and
        angle folding paths agree everywhere.
        """
        magnitude = np.abs(phasor_stream)
        zero = magnitude == 0.0
        has_zero = bool(zero.any())
        if has_zero:
            magnitude = np.where(zero, 1.0, magnitude)
        # Multiply by the reciprocal: one divide pass over the real
        # magnitudes instead of two per complex element.
        np.reciprocal(magnitude, out=magnitude)
        unit = phasor_stream * magnitude
        if has_zero:
            c = self.cfo_correction
            fill = (
                complex(np.cos(c), np.sin(c))
                if c is not None and c != 0.0
                else 1.0 + 0.0j
            )
            unit[zero] = fill
        return unit

    # -- unsynchronized detection (Section IV-C) -----------------------------

    def detect_bits(self, phases, tau=None):
        """All unsynchronized bit detections in a phase stream.

        A window fires for bit 1 when its nonnegative count is at least
        ``window - tau`` and for bit 0 when the count is at most ``tau``.
        Windows firing for the same bit value within one plateau (gaps
        smaller than the window) merge into a single :class:`BitDetection`
        anchored at the cluster's first index.
        """
        tau = self.tau if tau is None else int(tau)
        phases = np.asarray(phases)
        counts = sliding_count(phases >= 0, self.window)
        if counts.size == 0:
            return []
        detections = []
        for bit, firing in (
            (1, counts >= self.window - tau),
            (0, counts <= tau),
        ):
            indices = np.flatnonzero(firing)
            if indices.size == 0:
                continue
            splits = np.flatnonzero(np.diff(indices) > self.window) + 1
            for cluster in np.split(indices, splits):
                extreme = counts[cluster].max() if bit == 1 else counts[cluster].min()
                detections.append(
                    BitDetection(index=int(cluster[0]), bit=bit, count=int(extreme))
                )
        detections.sort(key=lambda d: d.index)
        return detections

    def decode_unsynchronized(self, phases, tau=None):
        """Bit sequence read off the detection stream, in time order."""
        return [d.bit for d in self.detect_bits(phases, tau=tau)]

    # -- synchronized decoding (Section V) -----------------------------------

    def decode_synchronized(self, phases, first_bit_index, n_bits):
        """Majority-vote decode of ``n_bits`` starting at a known index.

        ``first_bit_index`` is the phase-stream index where the first
        bit's stable window starts (the preamble capture provides it);
        subsequent bits are ``bit_period`` apart.  Bits whose window runs
        past the end of the stream are dropped.
        """
        return self.decode_synchronized_mask(
            np.asarray(phases) >= 0, first_bit_index, n_bits
        )

    def decode_synchronized_mask(self, nonneg, first_bit_index, n_bits):
        """:meth:`decode_synchronized` on a precomputed nonnegative mask.

        The fast phasor path feeds ``phasor_stream(...).imag >= 0`` here
        directly, never materializing the angle stream.  All windows are
        counted in one cumulative-sum pass.
        """
        nonneg = np.asarray(nonneg, dtype=bool)
        # Window starts are monotonic, so the in-bounds windows form a
        # prefix (matching the original early-exit loop).
        n_fit = 0
        if first_bit_index >= 0 and nonneg.size >= first_bit_index + self.window:
            n_fit = 1 + (nonneg.size - self.window - first_bit_index) // self.bit_period
        n_fit = max(min(int(n_bits), n_fit), 0)
        starts = first_bit_index + self.bit_period * np.arange(n_fit)
        if n_fit * self.window <= nonneg.size:
            # Gather just the bit windows — far cheaper than a
            # cumulative sum over the whole stream.
            counts = nonneg[starts[:, None] + np.arange(self.window)].sum(axis=1)
        else:
            csum = np.empty(nonneg.size + 1, dtype=np.int64)
            csum[0] = 0
            np.cumsum(nonneg, dtype=np.int64, out=csum[1:])
            counts = csum[starts + self.window] - csum[starts]
        bits = counts >= self.tau_sync
        if REGISTRY.enabled:
            observe_sync_decode(nonneg, counts, self.tau_sync)
        return SyncDecodeResult(
            bits=tuple(int(b) for b in bits),
            counts=tuple(int(c) for c in counts),
            positions=tuple(int(s) for s in starts),
        )
