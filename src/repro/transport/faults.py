"""Channel-dynamics fault injection for transport experiments.

A fault profile answers one question per data-frame transmission: *what
is the channel doing right now?* — expressed as a :class:`ChannelState`
(extra path loss in dB plus an optional WiFi interference model), and
optionally a set of ACK-side impairments.  Profiles are deterministic
functions of (time, their own RNG stream): the transport session hands
each profile a dedicated generator spawned from the session seed, so the
same seed replays the same bursts regardless of how the data path's own
randomness unfolds.

Included dynamics, mirroring the channel conditions the SymBee and
AdaComm papers evaluate under:

* ``GilbertElliott`` — the classic two-state burst model: a good state
  with the nominal channel and a bad state adding loss (deep fade /
  shadowing), with geometric sojourn times.
* ``InterferenceBursts`` — scripted WiFi interferer activity windows
  reusing the OFDM burst machinery from the reverse-CTI extension
  (:class:`repro.channel.interference.WifiInterferenceModel`).
* ``SnrRamp`` — piecewise-linear SNR trajectory over time (mobility or
  a slow fade), the scenario that exercises FEC adaptation.
* ``AckBlackout`` — data path untouched, but the WiFi->ZigBee beacon
  side channel goes silent in scripted windows, starving the ARQ of
  feedback.

``PROFILES`` maps CLI-friendly names to zero-argument factories.
"""

from dataclasses import dataclass, field

from repro.channel.interference import WifiInterferenceModel


@dataclass(frozen=True)
class ChannelState:
    """Channel condition applied to one data-frame transmission."""

    extra_loss_db: float = 0.0
    interference: "WifiInterferenceModel | None" = None


@dataclass(frozen=True)
class AckImpairments:
    """Side-channel condition the profile imposes on the ACK path."""

    loss_prob: float = 0.0
    jitter_sigma_s: float = 0.0
    blackouts: tuple = ()


class FaultProfile:
    """Base profile: a clean, stationary channel."""

    name = "none"

    def state(self, time_s, rng):
        """Channel state for a transmission starting at ``time_s``.

        Called once per data transmission in nondecreasing time order;
        stateful profiles advance their internal dynamics here using the
        profile's dedicated ``rng``.
        """
        return ChannelState()

    def ack_impairments(self):
        return AckImpairments()

    def describe(self):
        return self.name


class GilbertElliott(FaultProfile):
    """Two-state Markov burst channel (Gilbert-Elliott).

    State transitions are evaluated in continuous time: sojourns are
    exponential with the given mean durations, advanced lazily to each
    queried transmission time.  The bad state attenuates the link by
    ``bad_extra_loss_db`` — enough, at the default operating points, to
    push the frame loss rate from "occasionally" to "almost always",
    which is what makes the ARQ's retransmit budget observable.
    """

    name = "burst"

    def __init__(self, mean_good_s=0.25, mean_bad_s=0.08, bad_extra_loss_db=6.0):
        if mean_good_s <= 0 or mean_bad_s <= 0:
            raise ValueError("sojourn means must be positive")
        self.mean_good_s = float(mean_good_s)
        self.mean_bad_s = float(mean_bad_s)
        self.bad_extra_loss_db = float(bad_extra_loss_db)
        self._bad = False
        self._next_flip_s = None
        # Called once per delivery attempt: hand out two frozen states
        # rather than building one per call.
        self._good_state = ChannelState()
        self._bad_state = ChannelState(extra_loss_db=self.bad_extra_loss_db)

    def state(self, time_s, rng):
        if self._next_flip_s is None:
            self._next_flip_s = float(rng.exponential(self.mean_good_s))
        while time_s >= self._next_flip_s:
            self._bad = not self._bad
            mean = self.mean_bad_s if self._bad else self.mean_good_s
            self._next_flip_s += float(rng.exponential(mean))
        return self._bad_state if self._bad else self._good_state

    def describe(self):
        return (
            f"{self.name}: Gilbert-Elliott, mean good {self.mean_good_s}s / "
            f"bad {self.mean_bad_s}s at +{self.bad_extra_loss_db} dB loss"
        )


class InterferenceBursts(FaultProfile):
    """Scripted WiFi interferer windows.

    During each ``(start_s, end_s)`` window, transmissions see an OFDM
    interferer at ``sir_db`` with the given burst duty cycle — the same
    interference machinery the reverse-CTI experiment drives, here used
    as a *fault* rather than a signal.
    """

    name = "interference"

    def __init__(self, windows=((0.2, 0.6), (1.0, 1.4)), sir_db=2.0, duty=0.6):
        self.windows = tuple((float(a), float(b)) for a, b in windows)
        for a, b in self.windows:
            if b <= a:
                raise ValueError("interference windows must have end > start")
        self.sir_db = float(sir_db)
        self.duty = float(duty)

    def state(self, time_s, rng):
        if any(a <= time_s < b for a, b in self.windows):
            model = WifiInterferenceModel(
                duty_cycle=self.duty,
                mean_sir_db=self.sir_db,
                sir_sigma_db=0.0,
            )
            return ChannelState(interference=model)
        return ChannelState()

    def describe(self):
        spans = ", ".join(f"{a:g}-{b:g}s" for a, b in self.windows)
        return f"{self.name}: WiFi bursts at SIR {self.sir_db} dB in [{spans}]"


class SnrRamp(FaultProfile):
    """Piecewise-linear extra-loss trajectory.

    ``points`` is a sequence of ``(time_s, extra_loss_db)`` knots; the
    loss is linearly interpolated between them and held flat outside.
    The default walks the link from clean down into the waterfall and
    back — the trajectory the adaptation test rides to force FEC
    switches in both directions.
    """

    name = "snr-ramp"

    def __init__(self, points=((0.0, 0.0), (1.0, 4.0), (2.0, 4.0), (3.0, 0.0))):
        self.points = tuple((float(t), float(v)) for t, v in points)
        if len(self.points) < 2:
            raise ValueError("need at least two trajectory points")
        if any(b[0] <= a[0] for a, b in zip(self.points, self.points[1:])):
            raise ValueError("trajectory times must be strictly increasing")

    def loss_db(self, time_s):
        pts = self.points
        if time_s <= pts[0][0]:
            return pts[0][1]
        if time_s >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= time_s <= t1:
                return v0 + (v1 - v0) * (time_s - t0) / (t1 - t0)
        return pts[-1][1]

    def state(self, time_s, rng):
        return ChannelState(extra_loss_db=self.loss_db(time_s))

    def describe(self):
        return f"{self.name}: loss trajectory {self.points}"


class AckBlackout(FaultProfile):
    """Clean data channel, but the ACK side channel goes dark on schedule."""

    name = "ack-blackout"

    def __init__(self, blackouts=((0.3, 0.9),), loss_prob=0.02, jitter_sigma_s=5e-5):
        self.blackouts = tuple((float(a), float(b)) for a, b in blackouts)
        self.loss_prob = float(loss_prob)
        self.jitter_sigma_s = float(jitter_sigma_s)

    def ack_impairments(self):
        return AckImpairments(
            loss_prob=self.loss_prob,
            jitter_sigma_s=self.jitter_sigma_s,
            blackouts=self.blackouts,
        )

    def describe(self):
        spans = ", ".join(f"{a:g}-{b:g}s" for a, b in self.blackouts)
        return f"{self.name}: beacon channel dark in [{spans}]"


#: CLI-facing registry: name -> zero-argument profile factory.
PROFILES = {
    "none": FaultProfile,
    "burst": GilbertElliott,
    "interference": InterferenceBursts,
    "snr-ramp": SnrRamp,
    "ack-blackout": AckBlackout,
}


def make_profile(name):
    """Instantiate a registered profile by name (raises on unknown)."""
    try:
        factory = PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; valid: {', '.join(sorted(PROFILES))}"
        ) from None
    return factory()
