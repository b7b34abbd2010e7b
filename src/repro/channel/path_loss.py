"""Large-scale propagation: log-distance path loss, shadowing, walls.

The standard indoor/outdoor model: ``PL(d) = PL0 + 10*n*log10(d/d0) + X``
with ``d0 = 1 m``, ``PL0`` the free-space loss at 1 m (about 40.2 dB at
2.44 GHz), ``n`` the environment's path-loss exponent, and ``X`` a
zero-mean Gaussian shadowing term in dB redrawn per packet (slow fading).
Wall penetration losses add a fixed budget, used by the NLOS experiment.
"""

import numpy as np

from repro.constants import ISM_BAND_CENTER_HZ, SPEED_OF_LIGHT


def free_space_path_loss_db(distance_m, frequency_hz=ISM_BAND_CENTER_HZ):
    """Friis free-space loss in dB at ``distance_m`` metres."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * np.log10(4.0 * np.pi * distance_m / wavelength)


#: Free-space loss at the 1 m reference distance, 2.44 GHz (about 40.2 dB).
FREE_SPACE_REFERENCE_LOSS_DB = float(free_space_path_loss_db(1.0))


class LogDistancePathLoss:
    """Log-distance path loss with lognormal shadowing and wall losses."""

    def __init__(
        self,
        exponent=2.0,
        shadowing_sigma_db=0.0,
        wall_loss_db=0.0,
    ):
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be nonnegative")
        self.exponent = float(exponent)
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self.wall_loss_db = float(wall_loss_db)

    def mean_loss_db(self, distance_m):
        """Deterministic component of the loss at ``distance_m``."""
        if distance_m <= 0:
            raise ValueError("distance must be positive")
        return (
            FREE_SPACE_REFERENCE_LOSS_DB
            + 10.0 * self.exponent * np.log10(distance_m)
            + self.wall_loss_db
        )

    def sample_loss_db(self, distance_m, rng):
        """One shadowing realization of the total loss (per packet)."""
        loss = self.mean_loss_db(distance_m)
        if self.shadowing_sigma_db > 0.0:
            loss += self.shadowing_sigma_db * rng.standard_normal()
        return float(loss)

    def received_power_dbm(self, tx_power_dbm, distance_m, rng=None):
        """RSS in dBm; deterministic when ``rng`` is omitted."""
        if rng is None:
            return tx_power_dbm - self.mean_loss_db(distance_m)
        return tx_power_dbm - self.sample_loss_db(distance_m, rng)
