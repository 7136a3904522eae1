"""Independent oracles for the panel's harmonic patterns.

Explicit per-element sums written from the definitions; nothing here calls
the package's pattern code, so tests comparing against these sums check the
package rather than the package against itself.
"""

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def direct_coefficient(row, m, L):
    """Order-m Fourier coefficient of one element: direct series summation."""
    acc = 0j
    sinc = 1.0 if m == 0 else np.sin(np.pi * m / L) / (np.pi * m / L)
    for ell in range(1, L + 1):
        acc += row[ell - 1] / L * sinc * np.exp(-1j * np.pi * m * (2 * ell - 1) / L)
    return acc


def direct_pattern(panel, code, m, xi, phi_fixed=0.0):
    """(eta_m, d eta_m / d xi) by an explicit loop over the (p, q) grid.

    Exact harmonic wavelength c / (f_c + m / T0).  Element (p, q) sits at
    x = (p - (n_x - 1) / 2) d on the z = 0 panel plane, so only the
    x-components of the two wavenumbers enter the phase.
    """
    k = 2 * np.pi * (panel.carrier_hz + m / code.period_t0) / SPEED_OF_LIGHT
    L = code.entries.shape[1]
    eta = deta = 0j
    for p in range(panel.n_x):
        x = (p - (panel.n_x - 1) / 2) * panel.spacing
        for q in range(panel.n_y):
            a_n = direct_coefficient(code.entries[p * panel.n_y + q], m, L)
            term = a_n * np.exp(1j * k * (np.sin(xi) + np.sin(phi_fixed)) * x)
            eta += term
            deta += 1j * k * np.cos(xi) * x * term
    return eta, deta
