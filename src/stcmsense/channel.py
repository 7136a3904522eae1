"""BS array response, pilots, path gains and echo-signal synthesis.

The monostatic echo of one pilot block decomposes into four path families:

* c1: BS -> panel -> BS (no target);
* c2: BS -> target -> BS, single bounce, carrier only;
* c3: BS -> panel -> target -> BS and
* c4: BS -> target -> panel -> BS, double bounce, present in every
  analyzed harmonic through the panel pattern.

The panel sits on the BS boresight axis (the config rejects any other
placement), so the BS sees it at angle 0 and it sees the BS at angle 0.
Every path's spatial factor is vec(u v^T X) of two steering vectors, formed
in one function, :func:`vec_outer`, over stacks of rows: the echo and its
stacked regressors come from it.  The FIMs of :mod:`.bounds` take their
inner products from its Gram identity instead, with no M S-long column.

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


def vec_outer(u: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """vec(u v^T X) per row of the (n, M) stacks u, v: (n, M S).

    The one spatial factor of every path: the echo's components and the
    stacked regressors are built from it.
    """
    return (np.matmul(v[:, None], x)[:, 0, :, None] * u[:, None, :]).reshape(
        len(u), u.shape[-1] * x.shape[-1])


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


ANGLE_CHUNK = 256  # most distinct angles per call of an angle-only factor


def _per_angle(fn, angle):
    """``fn`` of (n,) ``angle``s, evaluated once per distinct angle (by bits,
    so 0.0 and -0.0 stay apart), at most ANGLE_CHUNK a call, and gathered per
    cell; ``fn`` returns an array, or a tuple of arrays, over its angles."""
    u, inv = np.unique(np.array(angle, float, ndmin=1).view(np.int64), return_inverse=True)
    parts = [fn(u[i:i + ANGLE_CHUNK].view(float)) for i in range(0, len(u) or 1, ANGLE_CHUNK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p)[inv] for p in zip(*parts))
    return np.concatenate(parts)[inv]


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


def _scene_arrays(scene, geom: SceneGeometry, wavelength: float, fadings):
    """(alpha, xi, single-bounce gains, double-bounce gains) of the scene's
    targets, (n,) arrays each, in scene order.  Each target's amplitude
    rides on its fading draw, so one stacked :func:`path_gains` call serves
    the whole scene."""
    q = np.reshape([point.position for point in scene], (-1, 3))
    ang = angles_from_position(q, geom)
    nu = np.array([point.rcs_sqrt for point in scene])
    if fadings is not None:
        nu = nu * np.asarray(fadings)
    g = path_gains(ScatterPoint(position=q, rcs_sqrt=1.0), geom, fading=nu, wavelength=wavelength)
    return ang.alpha, ang.xi, g.sb_gain, g.db_gain


def _spatial(alpha, ula: UlaLayout):
    """(a(alpha) rows (n, M), the panel's a(0) broadcast to the same shape)."""
    a_r = steering_vector(ula, alpha).T
    return a_r, np.broadcast_to(steering_vector(ula, 0.0), a_r.shape)


def synthesize_echo(scene, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
                    code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
                    noise_power: float, rng=None, fadings=None,
                    keep_components: bool = False,
                    mode: WavelengthMode = WavelengthMode.EXACT) -> EchoBundle:
    """Full echo blocks Y_m for every analyzed harmonic.

    Components: c1 always; c2 only at m = 0; c3 and c4 for every m through
    the panel pattern at (target angle, panel-BS angle 0).  ``fadings`` is
    an optional per-target sequence of complex small-scale draws (default 1,
    the bound-computation convention); noise is added per harmonic, in
    member order, when a generator is supplied.

    The c1 gain carries no target amplitude or fading: the panel reflection
    itself is the deterministic pattern factor.
    """
    M, S = pilots.m_antennas, pilots.n_symbols
    x = pilots.symbols
    alpha, xi, g_sb, g_db = _scene_arrays(scene, geom, ula.wavelength, fadings)
    # one pattern call: every target angle, then the panel-BS angle (c1)
    eta, _ = harmonic_pattern_batch(panel, code, harmonics, np.append(xi, 0.0), 0.0, mode)
    a_r, a_s = _spatial(alpha, ula)
    a_0 = steering_vector(ula, np.zeros(1)).T
    c1_gain = path_gain(2 * geom.d_s, 1.0, 1.0, 1.0, ula.wavelength)
    # (|M|, M S) stacks of vec(c1), vec(c3) and vec(c4); vec(c2) at m = 0 only
    c1 = (c1_gain * eta[:, -1:]) * vec_outer(a_0, a_0, x)
    b = eta[:, :-1] * g_db
    c3, c4 = b @ vec_outer(a_r, a_s, x), b @ vec_outer(a_s, a_r, x)
    c2 = g_sb @ vec_outer(a_r, a_r, x)

    per_harmonic = {}
    components = {} if keep_components else None
    for i, m in enumerate(harmonics.members):
        blocks = [v.reshape(M, S, order="F")
                  for v in (c1[i], c2 if m == 0 else np.zeros(M * S, complex), c3[i], c4[i])]
        noise = complex_normal(rng, noise_power, (M, S)) if rng is not None else np.zeros((M, S))
        per_harmonic[m] = sum(blocks) + noise
        if keep_components:
            components[m] = {**dict(zip(("c1", "c2", "c3", "c4"), blocks)), "noise": noise}
    return EchoBundle(per_harmonic=per_harmonic, noise_power=noise_power, components=components)


def stack_sb(scene, geom: SceneGeometry, ula: UlaLayout, pilots: PilotMatrix,
             noise_power: float, rng=None, fadings=None):
    """Vectorized single-bounce observation and per-target regressors.

    Returns (y, regressors (n, M S), gains (n,)): y = sum_r beta_r H_r +
    noise, built from the c2 component alone (the structural separability
    assumption: SB processing never reads other harmonics or the panel
    paths).
    """
    alpha, _, gains, _ = _scene_arrays(scene, geom, ula.wavelength, fadings)
    a_r, _ = _spatial(alpha, ula)
    regs = vec_outer(a_r, a_r, pilots.symbols)
    y = gains @ regs
    if rng is not None:
        y += complex_normal(rng, noise_power, len(y))
    return y, regs, gains


def stack_db(scene, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
             code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
             noise_power: float, rng=None, fadings=None,
             mode: WavelengthMode = WavelengthMode.EXACT):
    """Vectorized double-bounce observation over all harmonics.

    Returns (y, regressors (n, |M| M S), gains (n,)) with y of length
    |M| M S; target r's regressor is kron(eta(xi_r), vec((a_r a_s^T +
    a_s a_r^T) X)), the c3/c4 paths times the harmonic pattern vector at
    the target's panel-side angle.
    """
    alpha, xi, _, gains = _scene_arrays(scene, geom, ula.wavelength, fadings)
    eta, _ = harmonic_pattern_batch(panel, code, harmonics, xi, 0.0, mode)
    a_r, a_s = _spatial(alpha, ula)
    v = vec_outer(a_r, a_s, pilots.symbols) + vec_outer(a_s, a_r, pilots.symbols)
    regs = (eta.T[:, :, None] * v[:, None, :]).reshape(len(v), eta.shape[0] * v.shape[1])
    y = gains @ regs
    if rng is not None:
        y += complex_normal(rng, noise_power, len(y))
    return y, regs, gains
