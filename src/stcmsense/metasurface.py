"""Panel coding sequences, harmonic far-field patterns and their derivatives.

A switching panel reflects with a periodically time-modulated coefficient
per element.  The Fourier series of that modulation feeds energy into
sidebands at ``f_c + m f_0``; each sideband sees its own effective aperture
taper, so the set of harmonic patterns varies with the panel-side angle and
carries the angle information exploited by the bounds module.

Conventions:

* Panel local frame: elements on a centered rectangular grid in the local
  x-y plane, boresight along local +z.  The local x-axis is aligned with the
  global +x axis, so the in-plane angle ``xi`` of the geometry module is
  directly the pattern argument.
* Element pattern is isotropic (E == 1); a directive element factor would
  enter every closed form as one common multiplier.
* ``sinc`` is the unnormalized sin(x)/x with sinc(0) = 1.
* y never enters the phase (both wavenumbers lie in the x-z plane, the
  elements at z = 0), so a column acts as one element with the summed
  coefficient; kernel temporaries scale with n_x, not n_x n_y.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


class CodingScheme(enum.Enum):
    PM = "pm"  # phase modulation, entries in {-1, +1}
    AM = "am"  # amplitude modulation, entries in {0, 1}


class WavelengthMode(enum.Enum):
    EXACT = "exact"      # lambda_m = c / (f_c + m f_0) inside the pattern
    CARRIER = "carrier"  # lambda_c everywhere


@dataclass(frozen=True)
class PanelLayout:
    """Rectangular panel: n_x columns along x, n_y rows along y."""

    n_x: int
    n_y: int
    spacing: float
    carrier_hz: float = 1e10

    @classmethod
    def half_wavelength(cls, n_x: int = 8, n_y: int = 8, carrier_hz: float = 1e10):
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(n_x=n_x, n_y=n_y, spacing=lam / 2.0, carrier_hz=carrier_hz)

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def element_positions(self) -> np.ndarray:
        """(N, 3) local element positions, row-major over (p, q).

        Element n = p * n_y + q sits at x-index p, y-index q; the grid is
        centered on the panel phase center.
        """
        xs = (np.arange(self.n_x) - (self.n_x - 1) / 2.0) * self.spacing
        ys = (np.arange(self.n_y) - (self.n_y - 1) / 2.0) * self.spacing
        pos = np.zeros((self.n_elements, 3))
        pos[:, 0] = np.repeat(xs, self.n_y)
        pos[:, 1] = np.tile(ys, self.n_x)
        return pos


@dataclass(frozen=True)
class CodingMatrix:
    """Per-element periodic switching sequences.

    entries:  (N, L) over {-1, +1} (PM) or {0, 1} (AM), one row per element
    in the panel's row-major (p, q) order.
    """

    entries: np.ndarray
    scheme: CodingScheme = CodingScheme.PM
    period_t0: float = 2e-6

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[1] < 1:
            raise ValueError("entries must be (N, L) with L >= 1")
        allowed = {-1.0, 1.0} if self.scheme is CodingScheme.PM else {0.0, 1.0}
        # Python floats, not np.unique or np.isin, which import numpy.ma; NaN is no entry
        if not set(e.ravel().tolist()) <= allowed:
            raise ValueError(f"entries outside the {self.scheme.value} alphabet")
        if self.period_t0 <= 0:
            raise ValueError("period_t0 must be positive")

    @property
    def code_length(self) -> int:
        return self.entries.shape[1]

    @property
    def f0(self) -> float:
        return 1.0 / self.period_t0


@dataclass(frozen=True)
class HarmonicSet:
    """Symmetric set of analyzed harmonic orders -m_f..+m_f."""

    m_f: int

    def __post_init__(self):
        if self.m_f < 0:
            raise ValueError("m_f must be >= 0")

    @property
    def members(self) -> list[int]:
        return list(range(-self.m_f, self.m_f + 1))

    def __len__(self) -> int:
        return 2 * self.m_f + 1


@dataclass(frozen=True)
class RisProfile:
    """Fixed unit-modulus phase profile of a linear (non-switching) panel."""

    phases: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.phases, dtype=complex)
        object.__setattr__(self, "phases", w)
        if not np.allclose(np.abs(w), 1.0, atol=1e-12):
            raise ValueError("profile entries must be unit modulus")


def fourier_coefficients(code: CodingMatrix, m: int) -> np.ndarray:
    """Order-m Fourier-series coefficients of all element waveforms, (N,).

    a^m = sum_l (G_l / L) sinc(pi m / L) exp(-j pi m (2l - 1) / L) per element.
    """
    L = code.code_length
    ell, x = np.arange(1, L + 1), np.pi * m / L
    phase = np.exp(-1j * np.pi * m * (2 * ell - 1) / L)
    return (code.entries @ phase) * ((np.sin(x) / x if m else 1.0) / L)


def _pattern_terms(coeffs, wavelengths, xi, phi_fixed: float, layout: PanelLayout):
    """(eta, d eta / d xi), each (K, len(xi)), for K coefficient rows.

    eta_i = sum_n c_in exp{j (k_i(xi) + k_i(phi_fixed))^T q_n} with isotropic
    element patterns and |k_i| = 2 pi / ``wavelengths[i]``; the derivative
    differentiates the wavenumber k(xi).  A harmonic passes its Fourier
    coefficients a^m and lambda_m, the fixed-profile baseline its phases w
    and lambda_c.  The n_y elements n = p n_y + q of column p share
    exp{j k (sin xi + sin phi_fixed) x_p}, so the coefficients are summed
    per column and the exponentials taken at the n_x column positions.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    c = np.reshape(coeffs, (-1, layout.n_x, layout.n_y)).sum(axis=-1)[:, None, :]
    x = layout.element_positions()[::layout.n_y, 0]
    k = 2 * np.pi / np.asarray(wavelengths, dtype=float)[:, None, None]
    phase = k * ((np.sin(xi)[:, None] + np.sin(phi_fixed)) * x)
    dphase = k * (np.cos(xi)[:, None] * x)
    core = c * np.exp(1j * phase)
    return core.sum(axis=-1), (1j * dphase * core).sum(axis=-1)


def _orders(layout: PanelLayout, code: CodingMatrix, orders, xi, phi_fixed: float,
            mode: WavelengthMode):
    """:func:`_pattern_terms` of the harmonics ``orders``, one row each, each at
    its own wavelength c / (f_c + m f_0), or all at the carrier's."""
    return _pattern_terms(np.stack([fourier_coefficients(code, m) for m in orders]),
                          [layout.wavelength if mode is WavelengthMode.CARRIER else
                           SPEED_OF_LIGHT / (layout.carrier_hz + m * code.f0) for m in orders],
                          xi, phi_fixed, layout)


def harmonic_pattern(layout: PanelLayout, code: CodingMatrix, m: int,
                     phi_d: float, phi_a: float,
                     mode: WavelengthMode = WavelengthMode.EXACT) -> complex:
    """Far-field pattern of harmonic m at departure/arrival angles (radians).

    Symmetric under swapping the two angles; the one-angle case of
    :func:`harmonic_pattern_batch`.
    """
    eta, _ = _orders(layout, code, [m], phi_d, phi_a, mode)
    return complex(eta[0, 0])


def harmonic_pattern_derivative(layout: PanelLayout, code: CodingMatrix, m: int,
                                xi: float, phi_fixed: float = 0.0,
                                mode: WavelengthMode = WavelengthMode.EXACT) -> complex:
    """d eta_m / d xi at (xi, phi_fixed), differentiating the wavenumber."""
    _, deta = _orders(layout, code, [m], xi, phi_fixed, mode)
    return complex(deta[0, 0])


def harmonic_pattern_batch(layout: PanelLayout, code: CodingMatrix,
                           harmonics: HarmonicSet, xi, phi_fixed: float = 0.0,
                           mode: WavelengthMode = WavelengthMode.EXACT):
    """Patterns and xi-derivatives for all m in the set at angles ``xi``.

    Returns (eta, deta) of shape (|M|, len(xi)), rows in ascending m, from
    one array pass over all harmonics; a scalar ``xi`` is the one-column case.
    """
    return _orders(layout, code, harmonics.members, xi, phi_fixed, mode)


# --- default switching design -------------------------------------------
#
# Per-column sequences are signed cyclic rotations of one 5-on/3-off block.
# The duty-5/8 block keeps every order |m| <= 5 populated while only two
# switching transitions per period keep the out-of-band energy below 1%
# (the balanced square block would zero all even orders, making the
# m_f = 3 -> 4 comparison degenerate).  The rotation/sign schedule below was
# selected by an exhaustive grid check so that, on a 1-degree angle grid,
# the information added by orders +-4 dominates the +-5 addition pointwise.
# Frozen for reproducibility; all rows of a column carry the same sequence.
DEFAULT_BASE_ON_SLOTS = 5
DEFAULT_COLUMN_ROTATIONS = (1, 7, 1, 7, 4, 1, 0, 7)
DEFAULT_COLUMN_SIGNS = (1, -1, -1, 1, -1, -1, 1, -1)


def default_coding_matrix(layout: PanelLayout, code_length: int = 8,
                          period_t0: float = 2e-6) -> CodingMatrix:
    """Deterministic column-progressive PM code for the given panel.

    Column p uses the duty block rotated by ``DEFAULT_COLUMN_ROTATIONS[p mod 8]``
    slots and multiplied by ``DEFAULT_COLUMN_SIGNS[p mod 8]``; every row of a
    column repeats the column sequence.  Bit-exact across runs and platforms.
    """
    if code_length < 2:
        raise ValueError("code_length must be >= 2")
    on = max(1, round(DEFAULT_BASE_ON_SLOTS * code_length / 8))
    base = -np.ones(code_length)
    base[:on] = 1.0
    entries = np.empty((layout.n_elements, code_length))
    for p in range(layout.n_x):
        rot = DEFAULT_COLUMN_ROTATIONS[p % 8] % code_length
        sign = DEFAULT_COLUMN_SIGNS[p % 8]
        row = sign * np.roll(base, rot)
        entries[p * layout.n_y:(p + 1) * layout.n_y, :] = row
    return CodingMatrix(entries=entries, scheme=CodingScheme.PM, period_t0=period_t0)


# --- linear-RIS baseline ---------------------------------------------------

def _ris_terms(profile: RisProfile, layout: PanelLayout, xi, phi_fixed: float):
    """(g, dg / dxi), each (len(xi), 1), of g = a_R(xi)^T diag(w) a_R(phi_fixed)
    for a fixed phase profile w: :func:`_pattern_terms` with coefficients w at
    the carrier wavelength, one harmonic row."""
    if profile.phases.shape[0] != layout.n_elements:
        raise ValueError("profile length must match the panel")
    eta, deta = _pattern_terms(profile.phases[None], [layout.wavelength], xi, phi_fixed, layout)
    return eta.T, deta.T
