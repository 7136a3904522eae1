"""BS array response, pilots, path gains and echo-signal synthesis.

The monostatic echo of one pilot block decomposes into four path families:

* c1: BS -> panel -> BS (no target);
* c2: BS -> target -> BS, single bounce, carrier only;
* c3: BS -> panel -> target -> BS and
* c4: BS -> target -> panel -> BS, double bounce, present in every
  analyzed harmonic through the panel pattern.

Static scene throughout: no Doppler factors anywhere.  Vectorization uses
the column-major (Fortran) ``vec`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import NonPositiveDistance, NotPerfectSquare
from .geometry import SceneGeometry, ScatterPoint, angles_from_position, triangle_distances
from .metasurface import (
    CodingMatrix,
    HarmonicSet,
    PanelLayout,
    WavelengthMode,
    harmonic_pattern_batch,
)
from .rng import complex_normal


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.ravel(a, order="F")


@dataclass(frozen=True)
class UlaLayout:
    """Uniform linear array along the x-axis, phase-centered at the BS."""

    m_antennas: int
    spacing: float
    carrier_hz: float = 1e10

    @classmethod
    def half_wavelength(cls, m_antennas: int = 16, carrier_hz: float = 1e10):
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(m_antennas=m_antennas, spacing=lam / 2.0, carrier_hz=carrier_hz)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def positions(self) -> np.ndarray:
        """(M, 3) antenna positions relative to the array center."""
        xs = (np.arange(self.m_antennas) - (self.m_antennas - 1) / 2.0) * self.spacing
        pos = np.zeros((self.m_antennas, 3))
        pos[:, 0] = xs
        return pos


def steering_vector(layout: UlaLayout, angle) -> np.ndarray:
    """exp(j Q k(angle)); unit-modulus entries.

    Accepts a scalar angle -> (M,), or an array of angles -> (M, len(angle)).
    Antennas sit on the x-axis, so only the sin(angle) wavenumber component
    survives the position dot product.
    """
    a = np.asarray(angle, dtype=float)
    xs = layout.positions()[:, 0]
    out = np.exp(1j * (2 * np.pi / layout.wavelength) * np.outer(xs, np.sin(a)))
    return out[:, 0] if a.ndim == 0 else out


def steering_derivative(layout: UlaLayout, angle) -> np.ndarray:
    """Analytic d a_B / d angle: j (Q k'(angle)) elementwise on a_B."""
    a = np.asarray(angle, dtype=float)
    xs = layout.positions()[:, 0]
    kscale = 2 * np.pi / layout.wavelength
    base = np.exp(1j * kscale * np.outer(xs, np.sin(a)))
    deriv = 1j * kscale * np.outer(xs, np.cos(a) * np.ones_like(a)) * base
    return deriv[:, 0] if a.ndim == 0 else deriv


@dataclass(frozen=True)
class PilotMatrix:
    """Orthogonal pilot block X (M x S) with its total transmitted power.

    ``total_power`` is the Frobenius-squared norm of X in watts summed over
    the S symbols (single power knob of the simulator).
    """

    symbols: np.ndarray
    total_power: float

    def __post_init__(self):
        x = np.asarray(self.symbols, dtype=complex)
        object.__setattr__(self, "symbols", x)
        if x.ndim != 2:
            raise ValueError("symbols must be a matrix")

    @property
    def m_antennas(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.symbols.shape[1]

    def gram(self) -> np.ndarray:
        """X X^H -- the exact pilot Gram matrix used by the FIM blocks."""
        return self.symbols @ self.symbols.conj().T


def dft_pilots(m_antennas: int, total_power: float) -> PilotMatrix:
    """Kronecker-of-DFT pilot block, S = M symbols, X X^H proportional to I.

    Requires a perfect-square antenna count; the block is the Kronecker
    product of two sqrt(M)-point DFT matrices scaled so that
    ||X||_F^2 = total_power.
    """
    root = int(round(np.sqrt(m_antennas)))
    if root * root != m_antennas:
        raise NotPerfectSquare(f"M = {m_antennas} is not a perfect square")
    n = np.arange(root)
    dft = np.exp(2j * np.pi * np.outer(n, n) / root)
    x = np.kron(dft, dft)
    scale = np.sqrt(total_power) / np.linalg.norm(x, "fro")
    return PilotMatrix(symbols=scale * x, total_power=total_power)


def path_gain(distance: float, rcs_sqrt: float = 1.0, fading: complex = 1.0,
              esymbol: float = 1.0, wavelength: float = SPEED_OF_LIGHT / 1e10,
              iota: float = 2.0) -> complex:
    """Complex gain of one roundtrip path of the given total length.

    G(d) = sqrt(esymbol) lambda / (4 pi d^iota), rotated by the carrier
    phase of the path and scaled by the target amplitude and fading draw.
    ``esymbol`` defaults to 1: the transmit energy lives in the pilot block.
    An array of distances gives an array of gains.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("path distance must be positive")
    g = np.sqrt(esymbol) * wavelength / (4 * np.pi * d**iota)
    out = g * np.exp(1j * (-2 * np.pi * d / wavelength)) * rcs_sqrt * fading
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PathGains:
    """Single- and double-bounce gains of one target."""

    sb_gain: complex
    db_gain: complex
    sb_distance: float
    db_distance: float


def path_gains(point: ScatterPoint, geom: SceneGeometry, fading: complex = 1.0,
               esymbol: float = 1.0, wavelength: float = SPEED_OF_LIGHT / 1e10,
               iota: float = 2.0) -> PathGains:
    """Both bounce gains for a target: roundtrips 2 d_r and d_S + d_r + d_r'.

    A point with stacked positions (n, 3) gives (n,) arrays in every field.
    """
    d_r, d_s, d_rp = triangle_distances(point.position, geom)
    sb_d = 2 * d_r
    db_d = d_s + d_r + d_rp
    if point.rcs_sqrt == 0:
        return PathGains(0j * sb_d, 0j * db_d, sb_d, db_d)
    return PathGains(
        sb_gain=path_gain(sb_d, point.rcs_sqrt, fading, esymbol, wavelength, iota),
        db_gain=path_gain(db_d, point.rcs_sqrt, fading, esymbol, wavelength, iota),
        sb_distance=sb_d,
        db_distance=db_d,
    )


@dataclass
class EchoBundle:
    """Per-harmonic received blocks with optional per-path breakdown."""

    per_harmonic: dict
    noise_power: float
    components: dict | None = None

    def harmonic(self, m: int) -> np.ndarray:
        return self.per_harmonic[m]


def _bs_panel_angles(geom: SceneGeometry):
    """(angle of panel seen from BS, angle of BS seen from panel)."""
    sx, _, sz = geom.stcm_center
    bx, _, bz = geom.bs_center
    phi_s = np.arctan2(sx - bx, sz - bz)
    phi_b = np.arctan2(bx - sx, abs(bz - sz))
    return float(phi_s), float(phi_b)


def synthesize_echo(scene, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
                    code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
                    noise_power: float, rng=None, fadings=None,
                    keep_components: bool = False,
                    mode: WavelengthMode = WavelengthMode.EXACT) -> EchoBundle:
    """Full echo blocks Y_m for every analyzed harmonic.

    Components: c1 always; c2 only at m = 0; c3 and c4 for every m through
    the panel pattern at (target angle, panel-BS angle).  ``fadings`` is an
    optional per-target sequence of complex small-scale draws (default 1,
    the bound-computation convention); noise is added per harmonic when a
    generator is supplied.

    The c1 gain carries no target amplitude or fading: the panel reflection
    itself is the deterministic pattern factor.
    """
    M, S = pilots.m_antennas, pilots.n_symbols
    x = pilots.symbols
    phi_s, phi_b = _bs_panel_angles(geom)
    a_s = steering_vector(ula, phi_s)
    if fadings is None:
        fadings = [1.0] * len(scene)

    angles = [angles_from_position(point.position, geom) for point in scene]
    # one pattern call: every target angle, then the panel-BS angle (c1)
    eta, _ = harmonic_pattern_batch(panel, code, harmonics,
                                    [ang.xi for ang in angles] + [phi_b], phi_b, mode)
    per_target = []
    for j, (point, nu, ang) in enumerate(zip(scene, fadings, angles)):
        gains = path_gains(point, geom, fading=nu, wavelength=ula.wavelength)
        per_target.append((point, gains, steering_vector(ula, ang.alpha), eta[:, j]))

    c1_gain = path_gain(2 * geom.d_s, 1.0, 1.0, 1.0, ula.wavelength)
    eta_panel = eta[:, -1]

    per_harmonic = {}
    components = {} if keep_components else None
    for i, m in enumerate(harmonics.members):
        c1 = c1_gain * eta_panel[i] * np.outer(a_s, a_s) @ x
        c2 = np.zeros((M, S), dtype=complex)
        c3 = np.zeros((M, S), dtype=complex)
        c4 = np.zeros((M, S), dtype=complex)
        for point, gains, a_r, eta in per_target:
            if m == 0:
                c2 += gains.sb_gain * np.outer(a_r, a_r) @ x
            c3 += gains.db_gain * eta[i] * np.outer(a_r, a_s) @ x
            c4 += gains.db_gain * eta[i] * np.outer(a_s, a_r) @ x
        noise = complex_normal(rng, noise_power, (M, S)) if rng is not None else np.zeros((M, S))
        per_harmonic[m] = c1 + c2 + c3 + c4 + noise
        if keep_components:
            components[m] = {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "noise": noise}
    return EchoBundle(per_harmonic=per_harmonic, noise_power=noise_power, components=components)


def sb_regressor(alpha: float, ula: UlaLayout, pilots: PilotMatrix) -> np.ndarray:
    """vec(a(alpha) a(alpha)^T X): deterministic part of the c2 signal, (MS,)."""
    a = steering_vector(ula, alpha)
    return vec(np.outer(a, a) @ pilots.symbols)


def db_regressor(alpha: float, eta: np.ndarray, ula: UlaLayout,
                 pilots: PilotMatrix, phi_s: float = 0.0) -> np.ndarray:
    """Stacked double-bounce regressor over the harmonic set, (|M| M S,).

    kron(eta(xi, phi_b), vec(a(alpha) a(phi_s)^T X))
      + kron(eta(phi_b, xi), vec(a(phi_s) a(alpha)^T X));
    the two pattern vectors coincide by specular swap symmetry, so one
    ``eta`` argument serves both terms.
    """
    a_r = steering_vector(ula, alpha)
    a_s = steering_vector(ula, phi_s)
    v34 = vec(np.outer(a_r, a_s) @ pilots.symbols) + vec(np.outer(a_s, a_r) @ pilots.symbols)
    return np.kron(eta, v34)


def stack_sb(scene, geom: SceneGeometry, ula: UlaLayout, pilots: PilotMatrix,
             noise_power: float, rng=None, fadings=None):
    """Vectorized single-bounce observation and per-target regressors.

    Returns (y, regressors, gains): y = sum_r beta_r H_r + noise, built from
    the c2 component alone (the structural separability assumption: SB
    processing never reads other harmonics or the panel paths).
    """
    if fadings is None:
        fadings = [1.0] * len(scene)
    M, S = pilots.m_antennas, pilots.n_symbols
    regs, gains = [], []
    y = np.zeros(M * S, dtype=complex)
    for point, nu in zip(scene, fadings):
        ang = angles_from_position(point.position, geom)
        g = path_gains(point, geom, fading=nu, wavelength=ula.wavelength)
        h = sb_regressor(ang.alpha, ula, pilots)
        regs.append(h)
        gains.append(g.sb_gain)
        y += g.sb_gain * h
    if rng is not None:
        y += complex_normal(rng, noise_power, M * S)
    return y, regs, gains


def stack_db(scene, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
             code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
             noise_power: float, rng=None, fadings=None,
             mode: WavelengthMode = WavelengthMode.EXACT):
    """Vectorized double-bounce observation over all harmonics.

    Returns (y, regressors, gains) with y of length |M| M S; per-target
    regressors combine the c3/c4 paths and the harmonic pattern vector at
    the target's panel-side angle.
    """
    if fadings is None:
        fadings = [1.0] * len(scene)
    M, S = pilots.m_antennas, pilots.n_symbols
    phi_s, phi_b = _bs_panel_angles(geom)
    regs, gains = [], []
    y = np.zeros(len(harmonics) * M * S, dtype=complex)
    for point, nu in zip(scene, fadings):
        ang = angles_from_position(point.position, geom)
        g = path_gains(point, geom, fading=nu, wavelength=ula.wavelength)
        eta, _ = harmonic_pattern_batch(panel, code, harmonics, ang.xi, phi_b, mode)
        h = db_regressor(ang.alpha, eta[:, 0], ula, pilots, phi_s)
        regs.append(h)
        gains.append(g.db_gain)
        y += g.db_gain * h
    if rng is not None:
        y += complex_normal(rng, noise_power, len(harmonics) * M * S)
    return y, regs, gains
