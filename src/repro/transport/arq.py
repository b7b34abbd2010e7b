"""Selective-repeat ARQ sender state machine.

Pure control logic, no PHY and no clock of its own: the transport
session owns time and asks the machine what to do at a given instant.
The machine tracks, per fragment: acknowledged or not, transmission
attempts used, and when the retransmit timer next fires.
A fragment may be (re)transmitted when it is inside the send window
(``base .. base + window - 1``), unacknowledged, past its timer, and
still under the attempt budget; the machine always offers the lowest
eligible index, which keeps retransmissions ahead of new data.

Keeping the machine apart from the session's clock and PHY is what lets
it be driven, and tested, with hand-written ACKs alone.
"""

from repro.transport.ackchannel import ACK_WINDOW


class ArqSender:
    """Window/timer/budget bookkeeping for one message's fragments."""

    def __init__(self, frag_count, window=ACK_WINDOW, rto_s=0.35, max_attempts=12):
        if frag_count < 1:
            raise ValueError("frag_count must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.frag_count = int(frag_count)
        self.window = int(window)
        self.rto_s = float(rto_s)
        self.max_attempts = int(max_attempts)
        self.acked = [False] * self.frag_count
        self.attempts = [0] * self.frag_count
        self.last_tx_s = [None] * self.frag_count
        self._next_due_s = [0.0] * self.frag_count
        self.base = 0

    # -- state ---------------------------------------------------------------

    @property
    def done(self):
        """Every fragment acknowledged."""
        return self.base >= self.frag_count

    @property
    def exhausted(self):
        """Some unacknowledged fragment has burned its whole budget."""
        return any(
            not acked and attempts >= self.max_attempts
            for acked, attempts in zip(self.acked, self.attempts)
        )

    def _window_indexes(self):
        end = min(self.base + self.window, self.frag_count)
        return range(self.base, end)

    def in_flight(self):
        """Window fragments transmitted at least once and still unacked."""
        return sum(
            1
            for k in self._window_indexes()
            if self.attempts[k] > 0 and not self.acked[k]
        )

    # -- sending -------------------------------------------------------------

    def next_tx(self, now_s):
        """Lowest fragment index eligible to transmit at ``now_s``.

        ``None`` when nothing is currently eligible — either all in
        window fragments are acknowledged/waiting on timers, or the
        remaining ones are out of budget (check :attr:`exhausted`).
        """
        for k in self._window_indexes():
            if (
                not self.acked[k]
                and self.attempts[k] < self.max_attempts
                and self._next_due_s[k] <= now_s
            ):
                return k
        return None

    def next_wakeup(self):
        """Earliest future retransmit-timer expiry, or ``None``."""
        due = [
            self._next_due_s[k]
            for k in self._window_indexes()
            if not self.acked[k] and self.attempts[k] < self.max_attempts
        ]
        return min(due) if due else None

    def record_tx(self, frag_index, now_s, airtime_s):
        """Account one transmission and arm its retransmit timer."""
        if self.acked[frag_index]:
            raise ValueError("fragment already acknowledged")
        self.attempts[frag_index] += 1
        self.last_tx_s[frag_index] = float(now_s)
        self._next_due_s[frag_index] = float(now_s) + float(airtime_s) + self.rto_s

    # -- feedback ------------------------------------------------------------

    def on_ack(self, record, msg_id):
        """Apply one ACK record; returns the newly acknowledged indexes.

        The record acknowledges everything below its cumulative ``base``
        plus the bitmap positions above it.  Records for other messages
        (a stale msg_id from the 4-bit wrap) are ignored.
        """
        if record is None or record.msg_id != msg_id:
            return []
        newly = []
        for k in range(min(record.base, self.frag_count)):
            if not self.acked[k]:
                self.acked[k] = True
                newly.append(k)
        for offset, flag in enumerate(record.bitmap):
            k = record.base + offset
            if flag and k < self.frag_count and not self.acked[k]:
                self.acked[k] = True
                newly.append(k)
        while self.base < self.frag_count and self.acked[self.base]:
            self.base += 1
        return newly
