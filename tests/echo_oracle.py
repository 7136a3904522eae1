"""Independent oracles for the echo's path regressors.

Each regressor is written out per target with ``np.outer`` and ``np.kron``
from the signal model; nothing here calls the package's factor code
(``channel.vec_outer``) or imports the package at all, so the echo, its
stacks and the FIM columns are checked against these rather than against
themselves.  The panel sits on the BS boresight, so the BS-side steering
vector of the panel is a(0).
"""

import numpy as np


def vec(a):
    """Column-stacking vectorization."""
    return np.ravel(a, order="F")


def steering_vector(ula, angle):
    """a(angle) of the x-axis ULA: exp(j 2 pi x_n sin(angle) / lambda) at the
    element positions x_n, centred on the array's phase centre."""
    x = (np.arange(ula.m_antennas) - (ula.m_antennas - 1) / 2.0) * ula.spacing
    return np.exp(1j * (2 * np.pi / ula.wavelength) * (x * np.sin(angle)))


def sb_regressor(alpha, ula, pilots):
    """vec(a(alpha) a(alpha)^T X): the c2 signal of a unit gain, (M S,)."""
    a = steering_vector(ula, alpha)
    return vec(np.outer(a, a) @ pilots.symbols)


def db_regressor(alpha, eta, ula, pilots):
    """Stacked double-bounce regressor over the harmonic set, (|M| M S,):

    kron(eta, vec((a(alpha) a(0)^T + a(0) a(alpha)^T) X)), the c3 + c4
    paths of a unit gain; ``eta`` holds one pattern value per harmonic.
    """
    a_r, a_s = steering_vector(ula, alpha), steering_vector(ula, 0.0)
    return np.kron(eta, vec((np.outer(a_r, a_s) + np.outer(a_s, a_r)) @ pilots.symbols))
