"""Ambient noise and burst interference state for fleet links.

A noise model answers, per transmission: *how much extra loss is this
link seeing right now, and how many WiFi interferers are active?*  The
answer feeds the communication model — extra loss shifts the link SNR,
the interferer count selects a column of the calibrated delivery table
(or installs a real interference model in sample fidelity).

Burst dynamics reuse the :class:`repro.transport.faults.GilbertElliott`
machinery directly: one two-state chain per node, each advanced lazily
on its own scheduler stream in (per-node nondecreasing) transmission
time order — exactly the contract ``transport`` established for fault
profiles.  The chain asks its generator only for ``exponential(mean)``,
so it is handed a block drawer of standard exponentials behind that
one method (:class:`_Exponential`).

Each model is bound to the campaign's scheduler once (``bind``), then
queried; ``NOISE_MODELS`` maps a manifest ``kind`` to its class.
"""

from repro.transport.faults import GilbertElliott


class NoiseState:
    """Channel condition for one transmission."""

    __slots__ = ("extra_loss_db", "interferers")

    def __init__(self, extra_loss_db=0.0, interferers=0):
        self.extra_loss_db = extra_loss_db
        self.interferers = interferers


_CLEAN = NoiseState()


class _Exponential:
    """``exponential(scale)`` served from a standard-exponential drawer.

    ``scale * standard_exponential()`` is bit-identical to
    ``exponential(scale)``, so a chain drawing through this sees the
    values its own generator would have given it.
    """

    __slots__ = ("_draw",)

    def __init__(self, draw):
        self._draw = draw

    def exponential(self, scale):
        return scale * self._draw()


class NoiseModel:
    """Base protocol: a perfectly clean, stationary RF environment."""

    kind = "none"

    #: Largest interferer count this model can report; the calibration
    #: grid must cover at least this many columns.
    max_interferers = 0

    def bind(self, scheduler):
        self._scheduler = scheduler

    def state(self, node_id, time_s):
        return _CLEAN


class AmbientNoise(NoiseModel):
    """Stationary ambient floor plus memoryless WiFi activity.

    ``extra_loss_db`` models a flat margin erosion (foliage, enclosure,
    antenna detuning).  ``interference_duty`` is the probability any one
    of ``n_interferers`` nearby WiFi transmitters is mid-burst when the
    frame goes out — each samples independently per transmission
    (memoryless, the packet-level reading of a duty cycle).
    """

    kind = "ambient"

    def __init__(self, extra_loss_db=0.0, interference_duty=0.0, n_interferers=1):
        if not 0.0 <= interference_duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")
        if n_interferers < 0:
            raise ValueError("interferer count must be nonnegative")
        self.extra_loss_db = float(extra_loss_db)
        self.interference_duty = float(interference_duty)
        self.n_interferers = int(n_interferers)
        self.max_interferers = self.n_interferers if interference_duty else 0

    def bind(self, scheduler):
        super().bind(scheduler)
        self._uniform = scheduler.draws("noise", "random")

    def state(self, node_id, time_s):
        if not self.interference_duty or not self.n_interferers:
            if not self.extra_loss_db:
                return _CLEAN
            return NoiseState(extra_loss_db=self.extra_loss_db)
        uniform = self._uniform[node_id]
        active = 0
        for _ in range(self.n_interferers):
            if uniform() < self.interference_duty:
                active += 1
        return NoiseState(
            extra_loss_db=self.extra_loss_db, interferers=active
        )


class BurstNoise(AmbientNoise):
    """Gilbert–Elliott burst fading on top of the ambient model.

    Each node's link rides its own two-state chain (good/bad with
    exponential sojourns, ``bad_extra_loss_db`` in the bad state) — the
    exact :class:`repro.transport.faults.GilbertElliott` dynamics, one
    instance per node, advanced on per-node scheduler streams keyed
    ``("noise-burst", node_id)``.
    """

    kind = "burst"

    def __init__(
        self,
        mean_good_s=0.25,
        mean_bad_s=0.08,
        bad_extra_loss_db=6.0,
        extra_loss_db=0.0,
        interference_duty=0.0,
        n_interferers=1,
    ):
        super().__init__(
            extra_loss_db=extra_loss_db,
            interference_duty=interference_duty,
            n_interferers=n_interferers,
        )
        self.mean_good_s = float(mean_good_s)
        self.mean_bad_s = float(mean_bad_s)
        self.bad_extra_loss_db = float(bad_extra_loss_db)
        self._chains = {}

    def bind(self, scheduler):
        super().bind(scheduler)
        self._chains = {}
        self._sojourns = scheduler.draws("noise-burst", "standard_exponential")

    def state(self, node_id, time_s):
        base = super().state(node_id, time_s)
        chain = self._chains.get(node_id)
        if chain is None:
            chain = self._chains[node_id] = (
                GilbertElliott(
                    mean_good_s=self.mean_good_s,
                    mean_bad_s=self.mean_bad_s,
                    bad_extra_loss_db=self.bad_extra_loss_db,
                ),
                _Exponential(self._sojourns[node_id]),
            )
        burst = chain[0].state(time_s, chain[1])
        if not burst.extra_loss_db and base is _CLEAN:
            return _CLEAN
        return NoiseState(
            extra_loss_db=base.extra_loss_db + burst.extra_loss_db,
            interferers=base.interferers,
        )


#: Manifest ``kind`` -> constructor.
NOISE_MODELS = {
    "none": NoiseModel,
    "ambient": AmbientNoise,
    "burst": BurstNoise,
}
