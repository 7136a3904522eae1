"""BS array response, pilots, path gains and echo-signal synthesis.

The monostatic echo of one pilot block decomposes into four path families:

* c1: BS -> panel -> BS (no target);
* c2: BS -> target -> BS, single bounce, carrier only;
* c3: BS -> panel -> target -> BS and
* c4: BS -> target -> panel -> BS, double bounce, present in every
  analyzed harmonic through the panel pattern.

The target paths are declared once, in ``PATHS``: sb (c2) and db (c3, c4),
each with its TargetState gain field, the angle its harmonic factor varies
with and its named terms (u, v), vec(b_u b_v^T X) over a target's basis
b = [a(alpha), d a / d alpha, a_s = a(0)].  The echo, its :func:`stack` and
every FIM column of :mod:`.bounds` read them.

A scatter point has one model, :func:`_target_state`: its angles and both
bounce gains, :func:`path_gain` over the roundtrips 2 d_r and
d_S + d_r + d_r', under a ``config.SystemModel``'s geometry, wavelength and
path-loss exponent.  It is the one gain model: the maps' cells and fixed
scene, the echo and its stack all read it; the echo functions take the
model itself (by its attributes, as ``config`` imports this module).  The
propagation factor G(d) has one body, :func:`_propagation`, which every
path gain and the classifier's Rayleigh scale read.

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
from .geometry import angles_from_position, triangle_distances
from .metasurface import harmonic_pattern_batch
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


def _propagation(distance, wavelength: float, iota: float):
    """G(d) = lambda / (4 pi d^iota), the propagation factor of a roundtrip of
    total length d, for the path gains and the classifier's Rayleigh scale;
    raises NonPositiveDistance at any d <= 0."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("path distance must be positive")
    return wavelength / (4 * np.pi * d**iota)


def path_gain(distance: float, rcs_sqrt: float = 1.0, fading: complex = 1.0,
              wavelength: float = SPEED_OF_LIGHT / 1e10, iota: float = 2.0) -> complex:
    """Complex gain of one roundtrip path of the given total length.

    G(d) = lambda / (4 pi d^iota), rotated by the carrier phase of the path
    and scaled by the target amplitude and fading draw; the transmit energy
    lives in the pilot block.  An array of distances gives an array of gains.
    """
    d = np.asarray(distance, dtype=float)
    g = _propagation(d, wavelength, iota)
    out = g * np.exp(1j * (-2 * np.pi * d / wavelength)) * rcs_sqrt * fading
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TargetState:
    """Angles and bounce gains of one target, as consumed by the FIMs and
    the echo, or (n,) arrays of them for n targets or grid cells."""

    alpha: float
    xi: float
    sb_gain: complex
    db_gain: complex


def _target_state(q, model, amplitude=1.0) -> TargetState:
    """The scatter-point model: angles and bounce gains at a point (3,), or
    (n,) arrays of them at stacked points (n, 3), under ``model``'s geometry,
    wavelength and path-loss exponent.  ``amplitude`` is the sqrt-RCS times
    any fading draw, a scalar or (n,)."""
    ang = angles_from_position(q, model.geom)
    d_r, d_s, d_rp = triangle_distances(q, model.geom)
    sb, db = (path_gain(d, 1.0, amplitude, model.wavelength, model.iota)
              for d in (2 * d_r, d_s + d_r + d_rp))
    return TargetState(alpha=ang.alpha, xi=ang.xi, sb_gain=sb, db_gain=db)


@dataclass
class EchoBundle:
    """Per-harmonic received blocks with optional per-path breakdown."""

    per_harmonic: dict
    noise_power: float
    components: dict | None = None

    def harmonic(self, m: int) -> np.ndarray:
        return self.per_harmonic[m]


# the target paths, {kind: (gain field, angle, {term: (u, v)})}: see the module docstring
PATHS = {"sb": ("sb_gain", "alpha", {"c2": (0, 0)}),
         "db": ("db_gain", "xi", {"c3": (0, 2), "c4": (2, 0)})}


def _regressors(scene, model, fadings):
    """(TargetState of the scene's points, (n,) arrays in scene order; the rows
    vec(b_u b_v^T X), (n, M S), of every term of ``PATHS`` by name).  A point's
    amplitude is its sqrt-RCS times its fading draw (default 1)."""
    amplitude = np.array([point.rcs_sqrt for point in scene])
    if fadings is not None:
        amplitude = amplitude * np.asarray(fadings)
    state = _target_state(np.reshape([point.position for point in scene], (-1, 3)), model,
                          amplitude)
    a_r = steering_vector(model.ula, state.alpha).T
    b = (a_r, steering_derivative(model.ula, state.alpha).T,
         np.broadcast_to(steering_vector(model.ula, 0.0), a_r.shape))
    return state, {name: vec_outer(b[u], b[v], model.pilots.symbols)
                   for _, _, terms in PATHS.values() for name, (u, v) in terms.items()}


def _noisy(y, model, rng):
    """``y`` plus a noise draw of the model's power when a generator is given."""
    if rng is not None:
        y += complex_normal(rng, model.noise_power, len(y))
    return y


def synthesize_echo(scene, model, rng=None, fadings=None,
                    keep_components: bool = False) -> EchoBundle:
    """Full echo blocks Y_m for every analyzed harmonic of ``model`` (a
    ``config.SystemModel``).

    Components: c1 always; c2 only at m = 0; c3 and c4 for every m through
    the panel pattern at (target angle, panel-BS angle 0).  ``fadings`` is
    an optional per-target sequence of complex small-scale draws (default 1,
    the bound-computation convention); noise is added per harmonic, in
    member order, when a generator is supplied.

    The c1 gain carries no target amplitude or fading: the panel reflection
    itself is the deterministic pattern factor.
    """
    M, S = model.pilots.m_antennas, model.pilots.n_symbols
    harmonics = model.harmonics
    state, r = _regressors(scene, model, fadings)
    # one pattern call: every target angle, then the panel-BS angle (c1)
    eta, _ = harmonic_pattern_batch(model.panel, model.code, harmonics,
                                    np.append(state.xi, 0.0), 0.0, model.mode)
    a_0 = steering_vector(model.ula, np.zeros(1)).T
    c1_gain = path_gain(2 * model.geom.d_s, wavelength=model.wavelength, iota=model.iota)
    # (|M|, M S) stacks of vec(c1), vec(c3) and vec(c4); vec(c2) at m = 0 only
    c1 = (c1_gain * eta[:, -1:]) * vec_outer(a_0, a_0, model.pilots.symbols)
    b = eta[:, :-1] * state.db_gain
    c3, c4 = b @ r["c3"], b @ r["c4"]
    c2 = state.sb_gain @ r["c2"]

    per_harmonic = {}
    components = {} if keep_components else None
    for i, m in enumerate(harmonics.members):
        blocks = [v.reshape(M, S, order="F")
                  for v in (c1[i], c2 if m == 0 else np.zeros(M * S, complex), c3[i], c4[i])]
        noise = (complex_normal(rng, model.noise_power, (M, S)) if rng is not None
                 else np.zeros((M, S)))
        per_harmonic[m] = sum(blocks) + noise
        if keep_components:
            components[m] = {**dict(zip(("c1", "c2", "c3", "c4"), blocks)), "noise": noise}
    return EchoBundle(per_harmonic=per_harmonic, noise_power=model.noise_power,
                      components=components)


def stack(path, scene, model, rng=None, fadings=None):
    """Vectorized observation of a path of ``PATHS`` and its per-target regressors.

    Returns (y, regressors (n, L), gains (n,)), y = sum_r beta_r H_r + noise, H_r
    the sum of the path's terms: the carrier block alone for sb, L = M S (the
    structural separability assumption); for a xi path kron(eta(xi_r), that
    sum) over every harmonic, L = |M| M S, eta at the target's panel-side angle.
    """
    gain, angle, terms = PATHS[path]
    state, r = _regressors(scene, model, fadings)
    regs = np.sum([r[name] for name in terms], axis=0)
    if angle == "xi":
        eta, _ = harmonic_pattern_batch(model.panel, model.code, model.harmonics, state.xi, 0.0,
                                        model.mode)
        regs = (eta.T[:, :, None] * regs[:, None, :]).reshape(len(regs), len(eta) * regs.shape[1])
    return _noisy(getattr(state, gain) @ regs, model, rng), regs, getattr(state, gain)
