"""The Python scan walk: reference oracle for the native scan kernel.

:class:`ReferenceSession` is :class:`repro.stream.session.StreamSession`
with its one scan-kernel call replaced by the hot-index walk the
receiver ran in Python before the walk moved into ``walk_body.h``: the
bisect from hot position to hot position, the fused count+coherence
gate, the relative-coherence / concentration / cluster-peak cascade in
Python floats, the 24-bit header gate and its rewinds, and the bulk
count/coherence/concentration split of skipped ranges -- plus what the
kernel took over from the session's Python side paths: a pending
capture's header gated before anything else, and, at the end of the
stream, the tail after the last full chunk gated as one shorter chunk.
It reads the same caches -- hot positions from the int64 hot index,
gate values from ``cohcand_win`` / ``conc_win`` / ``count_win`` by
position -- and records the same outcome metrics, so any difference
between the two classes is a difference in the walk.

:func:`load_caches` installs crafted windowed caches in a fresh session
(the hot index and coherence-pass prefix from the numpy hot filter), and
:func:`adversarial_caches` crafts caches crowded onto every threshold
boundary.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from repro.core.frame import (
    FRAME_TYPE_ACK,
    FRAME_TYPE_TRANSPORT_BASE,
    MAX_DATA_BITS,
    MAX_KNOWN_FRAME_TYPE,
    VERSION,
    frame_overhead_bits,
)
from repro.core.preamble import (
    _COHERENCE,
    _HIT,
    _MISS_COHERENCE,
    _MISS_CONCENTRATION,
    _MISS_COUNT,
)
from repro.obs.metrics import REGISTRY
from repro.stream.session import _HEADER_BITS, _HEADER_REJECTS, StreamSession
from tests.stream.derive_reference import extend_prefix, index_reference


def _values(buf, positions):
    """``buf``'s entries at absolute ``positions``, as Python scalars."""
    return buf.view(buf.base, buf.end)[positions - buf.base].tolist()


def header_valid(version, frame_type, length):
    """Whether decoded header fields name a frame the parser accepts."""
    return (
        version == VERSION
        and frame_type <= MAX_KNOWN_FRAME_TYPE
        and not FRAME_TYPE_ACK < frame_type < FRAME_TYPE_TRANSPORT_BASE
        and length <= MAX_DATA_BITS
    )


def header_fields(prefix, bit_period, window, tau_sync):
    """``(version, frame_type, length)`` from the header's vote prefix.

    ``prefix`` is the vote-mask prefix from the data start on: all 24
    header bits decode as one word -- a gather at the 48 window edges
    (int32 differences, wrapping as the kernel's), thresholded and
    dotted with the bit weights.
    """
    starts = bit_period * np.arange(_HEADER_BITS, dtype=np.int64)
    edges = prefix[np.concatenate((starts, starts + window))]
    votes = edges[_HEADER_BITS:] - edges[:_HEADER_BITS]
    weights = 1 << np.arange(_HEADER_BITS - 1, -1, -1, dtype=np.int64)
    word = int((votes >= tau_sync) @ weights)
    return (
        (word >> (_HEADER_BITS - 4)) & 0xF,
        (word >> (_HEADER_BITS - 8)) & 0xF,
        (word >> (_HEADER_BITS - 16)) & 0xFF,
    )


class ReferenceSession(StreamSession):
    """A session whose scan walk runs in Python."""

    def _scan_batched(self, chunks):
        s = self.stride
        bp = self.decoder.bit_period
        window = self.decoder.window
        derived = self._derived
        derived.extend_windowed()
        metered = REGISTRY.enabled
        hot = derived.hot
        positions = hot.view(hot.base, hot.end)
        hot_pos = positions.tolist()
        # The cached gate values at each hot position (a float32
        # converts to a Python float losslessly).
        self._hot = (
            hot_pos,
            _values(derived.cohcand_win, positions),
            _values(derived.conc_win, positions),
            _values(derived.count_win, positions),
        )
        n_hot = len(hot_pos)
        mpb = derived.mask_prefix._buf
        mpd, mpo = mpb._data, mpb._start - mpb.base
        hdr_span = (_HEADER_BITS - 1) * bp + window
        buf_end = self._buf.end
        rejects = 0
        o = self._origin
        stop = o + chunks * s  # first chunk start not fully buffered
        i = bisect_left(hot_pos, o)
        pending = self._state == "pending"
        self._state = "search"
        while True:
            if not pending:
                q = stop
                if i < n_hot:
                    # k = max(0, ceil((h - o - s) / s)), in integer form.
                    q = min(stop, o + s * max(0, (hot_pos[i] - o - 1) // s))
                if metered and q > o:
                    self._count_skipped(o, (q - o) // s)
                e = q + s  # chunk q's last window start
                tail = q == stop
                if tail:
                    # The stream's tail, gated at its end if it holds a
                    # window start; a hit anywhere in it is accepted.
                    self._origin = stop
                    e = buf_end - self.scan_len + s
                    if not self._final or e < q:
                        break
                    if i == n_hot or hot_pos[i] > e:
                        if metered:
                            self._count_missed(q, e)
                        break
                hit = self._gate(q, e, i)
                if tail and hit is None:
                    break
                if not tail and (hit is None or hit[0] >= e):
                    o = e
                    i = bisect_left(hot_pos, o, i)
                    continue
                self._origin = q
                self._n0, self._coherence = hit
                self._data_start = self._n0 + self.folds * bp
            pending = False
            if buf_end < self._data_start + hdr_span:
                self._state = "pending"
                break
            a = mpo + self._data_start
            fields = header_fields(
                mpd[a : a + hdr_span + 1], bp, window, self.decoder.tau_sync
            )
            if header_valid(*fields):
                self._total_bits = frame_overhead_bits() + fields[2]
                self._state = "body"
                break
            rejects += 1
            o = self._origin = self._n0 + bp
            avail = buf_end - o
            stop = o
            if avail >= self.scan_len:
                stop += (1 + (avail - self.scan_len) // s) * s
            i = bisect_left(hot_pos, o, i)
        if rejects:
            self.header_rejects += rejects
            _HEADER_REJECTS.inc(rejects)
        return self._state == "body"

    def _gate(self, q, e, i):
        """The fused gate, then the cascade, of window starts [q, e]."""
        cp = self._derived.cohpass_prefix
        if cp.view(e + 1, e + 2)[0] == cp.view(q, q + 1)[0]:
            _MISS_COHERENCE.inc()
            return None
        return self._hot_cascade(q, e, i)

    def _hot_cascade(self, q, e, i):
        derived = self._derived
        pos, coh, conc, count = self._hot
        ftype = derived.float_type
        slack = self.coherence_slack
        best = float(derived.cohcand_win.view(q, e + 1).max())
        thr = float(ftype(max(best - slack, self.coherence_min)))
        kept = [j for j in range(i, bisect_right(pos, e, i)) if coh[j] >= thr]
        if not kept:
            _MISS_CONCENTRATION.inc()
            return None
        thr = float(ftype(max(max([conc[j] for j in kept]) - slack, 0.6)))
        for k, peak in enumerate(kept):
            if conc[peak] >= thr:
                break
        j = peak
        for nxt in kept[k + 1 :]:
            if pos[nxt] != pos[j] + 1 or conc[nxt] < thr:
                break
            j = nxt
            if count[j] > count[peak]:
                peak = j
        _HIT.inc()
        _COHERENCE.observe(coh[peak])
        return pos[peak], coh[peak]

    def _count_skipped(self, o, n):
        s = self.stride
        derived = self._derived
        cp = derived.cohpass_prefix.view(o, o + n * s + 2)
        n_conc = int(np.count_nonzero(cp[s + 1 :: s] > cp[: n * s : s]))
        counts = derived.count_win.view(o, o + n * s + 1)
        tops = np.maximum(
            np.maximum.reduceat(counts, np.arange(0, n * s, s)), counts[s::s]
        )
        n_count = n - int(np.count_nonzero(tops >= derived._capture_floor))
        _MISS_COUNT.inc(n_count)
        _MISS_COHERENCE.inc(n - n_count - n_conc)
        _MISS_CONCENTRATION.inc(n_conc)

    def _count_missed(self, q, e):
        """The miss split of one hot-free chunk, window starts [q, e]."""
        derived = self._derived
        cp = derived.cohpass_prefix
        counted = int(
            derived.count_win.view(q, e + 1).max() >= derived._capture_floor
        )
        passed = int(cp.view(e + 1, e + 2)[0] > cp.view(q, q + 1)[0])
        _MISS_COUNT.inc(1 - counted)
        _MISS_COHERENCE.inc(counted - passed)
        _MISS_CONCENTRATION.inc(passed)


def load_caches(session, counts, cohcand, conc, votes=None, buffered=None):
    """Install crafted windowed caches for window starts ``0 .. n-1``.

    ``session`` must be fresh.  The coherence-pass prefix and the hot
    index come from the numpy hot filter; the profile end is set where
    the windowed caches end, so a scan extends nothing and walks exactly
    these values.  ``votes`` are per-product vote flags (``imag >= 0``)
    from position 0, feeding the header gate; ``buffered`` is where the
    session's product stream ends (default: the end a real session
    would have with these windows, ``n + span + window - 1``).
    """
    derived = session._derived
    n = counts.size
    windowed = (derived.count_win, derived.cohcand_win, derived.conc_win)
    for buf, values in zip(windowed, (counts, cohcand, conc)):
        buf.alloc(n)[:] = values
    index_reference(derived, 0, cohcand, conc)
    derived.win_end = n
    derived.profile_end = n + derived.window - 1
    if votes is not None:
        extend_prefix(derived.mask_prefix, np.asarray(votes, dtype=bool))
    if buffered is None:
        buffered = n + derived.span + derived.window - 1
    session._buf.skip(buffered)


def adversarial_caches(rng, n, s, floor, coh_min, slack, dtype=np.float32):
    """Windowed caches crowded onto every threshold boundary.

    Each stride block draws a best coherence ``b`` and concentration
    ``bc`` and fills its positions with them plus values on and one ulp
    either side of ``coherence_min``, ``b - slack``, 0.6 and
    ``bc - slack`` -- exactly where comparing a float64 threshold instead
    of its working-dtype rounding flips a decision.  A third of the
    blocks are quiet (no concentration reaches 0.6, so no hot position)
    and a third weak (coherence capped at ``dtype(coherence_min)``), so
    a walk also skips long hot-free runs and gates chunks that can fail.
    """
    f32 = np.dtype(dtype).type

    def near(v):
        v = f32(v)
        return [np.nextafter(v, f32(0)), v, np.nextafter(v, f32(2))]

    counts = rng.integers(floor - 2, floor + 3, n).astype(np.int32)
    cohcand = np.empty(n, f32)
    conc = np.empty(n, f32)
    for lo in range(0, n, s):
        m = min(s, n - lo)
        kind = rng.integers(3)
        b = f32(coh_min) if kind == 1 else f32(rng.uniform(coh_min, 1.0))
        bc = f32(rng.uniform(0.6, 1.0))
        coh_pool = np.array(
            [b, *near(coh_min), *near(b - slack), rng.uniform(0.3, b)], f32
        )
        conc_pool = np.array(
            [bc, *near(0.6), *near(bc - slack), rng.uniform(0.3, bc)], f32
        )
        if kind == 2:
            conc_pool = conc_pool[conc_pool < 0.6]
        cohcand[lo : lo + m] = rng.choice(coh_pool[coh_pool <= b], m)
        conc[lo : lo + m] = rng.choice(conc_pool, m)
    cohcand[counts < floor] = -np.inf
    return counts, cohcand, conc
