"""Fisher information, closed-form angle CRBs, EFIM and position bounds.

Parameter sets follow the split processing of the echo: the single-bounce
(carrier) block informs the BS-side angle alpha, the stacked double-bounce
harmonics inform the panel-side angle xi; each angle drags a complex gain
nuisance (Re, Im).  Parameter ordering for R targets is

    [angle_1 .. angle_R, Re b_1, Im b_1, .., Re b_R, Im b_R].

All information matrices use the complex-Gaussian form

    F_ij = (2 / sigma_n^2) Re{ (d u / d psi_i)^H (d u / d psi_j) },

with a Hermitian inner product between stacked derivative vectors (required
for positive semidefiniteness).  Closed-form blocks are written with the
exact pilot Gram G = X X^H so that they coincide with the stacked-derivative
computation to floating-point accuracy rather than only approximately.

Singularity policy: any matrix whose scaled condition number
(:func:`scale_invariant_cond`, the 2-norm condition number after
normalization to unit diagonal) exceeds ``constants.CONDITION_LIMIT`` is
reported masked, never pseudo-inverted.  The decision reuses the inverse
that is computed anyway (:func:`_certified_inverse`).  With D the diagonal
of a k x k FIM F, kappa_F = ||D^-1/2 F D^-1/2||_F ||D^1/2 F^-1 D^1/2||_F
bounds the scaled condition number: kappa_2 <= kappa_F <= k kappa_2.  So
kappa_F <= limit / 2 passes a matrix and kappa_F > 2 k limit masks it; the
factor-2 margins cover the rounding of the computed inverse, whose relative
error grows as k eps kappa (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 14).  Only the rest take the SVD: the few matrices
near the limit, and any member whose LU meets an exactly zero pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, UlaLayout, steering_derivative, steering_vector, vec_outer
from .constants import CONDITION_LIMIT
from .errors import DimensionMismatch, SingularInformation
from .geometry import SceneGeometry, jacobian_angles_to_position
from .metasurface import (
    CodingMatrix,
    HarmonicSet,
    PanelLayout,
    RisProfile,
    WavelengthMode,
    harmonic_pattern_batch,
    ris_response,
    ris_response_derivative,
)


def _bad(m: np.ndarray) -> np.ndarray:
    """Stacked matrices with a diagonal entry that is not positive, or any
    non-finite entry: infinitely ill-conditioned after normalization."""
    d = np.diagonal(m, axis1=-2, axis2=-1)
    return np.any(~(d > 0), axis=-1) | ~np.all(np.isfinite(m), axis=(-2, -1))


def scale_invariant_cond(matrix: np.ndarray):
    """Condition number after symmetric diagonal normalization.

    Angle and gain parameters carry wildly different units, so the raw
    condition number of a mixed information matrix is dominated by scaling
    rather than identifiability.  Normalizing to unit diagonal measures the
    actual parameter coupling; a zero diagonal entry (a parameter with no
    information at all) or a non-finite entry reports as infinite.  Stacked
    (..., n, n) matrices give an array of condition numbers.
    """
    m = np.asarray(matrix, dtype=float)
    bad = _bad(m)
    s = np.sqrt(np.where(bad[..., None], 1.0, np.diagonal(m, axis1=-2, axis2=-1)))
    scaled = np.where(bad[..., None, None], np.eye(m.shape[-1]),
                      m / (s[..., :, None] * s[..., None, :]))
    cond = np.where(bad, np.inf, np.linalg.cond(scaled))
    return float(cond) if cond.ndim == 0 else cond


# Margins of _certified_inverse: kappa_F <= PASS * limit passes a matrix,
# kappa_F > MASK * k * limit masks it, and the SVD decides the rest.
_PASS_MARGIN = 0.5
_MASK_MARGIN = 2.0


def _certified_inverse(f: np.ndarray, limit: float):
    """(ok, x) for stacked (n, k, k) FIMs: ok is ``scale_invariant_cond(f)
    <= limit`` and x[ok] is bitwise ``np.linalg.inv(f[ok])``, as LAPACK
    inverts each matrix of a stack on its own.  kappa_F from the one
    inverse of the stack decides what it can (see the module docstring).
    Members LU finds exactly singular, which ``np.linalg.inv`` refuses, are
    named by slogdet (sign 0) and left to the SVD."""
    k = f.shape[-1]
    bad = _bad(f)
    g = np.where(bad[:, None, None], np.eye(k), f)
    singular = np.zeros_like(bad)
    try:
        x = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(g)[0] == 0
        try:
            x = np.linalg.inv(np.where(singular[:, None, None], np.eye(k), g))
        except np.linalg.LinAlgError:  # slogdet missed one: certify nothing
            singular[:], x = True, np.full(f.shape, np.nan)
    s = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    ss = s[:, :, None] * s[:, None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa_f = np.linalg.norm(g / ss, axis=(-2, -1)) * np.linalg.norm(x * ss, axis=(-2, -1))
    kappa_f[singular] = np.nan  # NaN, as from an overflowed inverse, decides nothing
    ok = ~bad & (kappa_f <= _PASS_MARGIN * limit)
    undecided = ~bad & ~ok & ~(np.isfinite(kappa_f) & (kappa_f > _MASK_MARGIN * k * limit))
    if undecided.any():
        ok[undecided] = scale_invariant_cond(f[undecided]) <= limit
    # passed rows LU left out; inv raises on an exactly singular one, as inv(f[ok]) does
    redo = ok & singular
    if redo.any():
        x[redo] = np.linalg.inv(f[redo])
    return ok, x


@dataclass(frozen=True)
class FisherMatrix:
    """Real symmetric PSD information matrix with named parameters."""

    entries: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        f = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", f)
        if f.shape[0] != f.shape[1]:
            raise ValueError("Fisher matrix must be square")

    def condition_number(self) -> float:
        """Scale-invariant conditioning; see :func:`scale_invariant_cond`."""
        return scale_invariant_cond(self.entries)


def fim_generic(derivative_columns, noise_power: float) -> FisherMatrix:
    """FIM from stacked signal derivatives: (2/s_n^2) Re{D^H D}."""
    cols = [np.asarray(c, dtype=complex).ravel() for c in derivative_columns]
    n = {c.shape[0] for c in cols}
    if len(n) != 1:
        raise DimensionMismatch(f"derivative lengths differ: {sorted(n)}")
    d = np.column_stack(cols)
    f = (2.0 / noise_power) * np.real(d.conj().T @ d)
    return FisherMatrix(entries=0.5 * (f + f.T))


def _one(values: np.ndarray, reason: str) -> float:
    """The single value of a one-cell array; raises where it is masked."""
    v = float(values[0])
    if np.isnan(v):
        raise SingularInformation(reason)
    return v


def _rows(ula: UlaLayout, angle, derivative: bool = False) -> np.ndarray:
    """Steering vectors (or their derivatives) at an array of angles, (n, M)."""
    fn = steering_derivative if derivative else steering_vector
    return np.ascontiguousarray(fn(ula, np.atleast_1d(angle)).T)


def _quad(v1: np.ndarray, g: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """v1^T G conj(v2) per row of the (n, M) stacks."""
    return np.sum(v1 * np.matmul(v2.conj()[:, None, :], g.T)[:, 0], axis=-1)


def _inner(u2: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """u2^H u1 per row of the (n, M) stacks."""
    return np.sum(u2.conj() * u1, axis=-1)


# Every trace below is a sum of rank-one terms
#     tr((u1 v1^T) G (u2 v2^T)^H) = (v1^T G conj(v2)) (u2^H u1),
# so per cell only length-M vectors are formed, never an M x M product.

def _sb_traces(alpha, ula: UlaLayout, pilots: PilotMatrix):
    """(t_dd, t_ad, t_aa) per angle: tr(dA G dA^H), tr(A G dA^H), tr(A G A^H)
    with A = a a^T, dA = da a^T + a da^T and the exact Gram G = X X^H."""
    a, da = _rows(ula, alpha), _rows(ula, alpha, derivative=True)
    g = pilots.gram()
    q_aa, q_ad = _quad(a, g, a), _quad(a, g, da)
    n_aa = _inner(a, a)
    t_aa = np.real(q_aa * n_aa)
    t_ad = q_aa * _inner(da, a) + q_ad * n_aa
    t_dd = np.real(q_aa * _inner(da, da) + q_ad * _inner(a, da)
                   + _quad(da, g, a) * _inner(da, a) + _quad(da, g, da) * n_aa)
    return t_dd, t_ad, t_aa


def _db_trace(alpha, ula: UlaLayout, pilots: PilotMatrix) -> np.ndarray:
    """tr(B G B^H) per angle with B = a_r a_s^T + a_s a_r^T, a_r = a(alpha)
    and a_s = a(0), the panel on the BS boresight."""
    r, s = _rows(ula, alpha), _rows(ula, 0.0)
    g = pilots.gram()
    return np.real(_quad(s, g, s) * _inner(r, r) + _quad(s, g, r) * _inner(s, r)
                   + _quad(r, g, s) * _inner(r, s) + _quad(r, g, r) * _inner(s, s))


def _patterns(xi, panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
              mode: WavelengthMode):
    """Harmonic patterns (eta, d eta / d xi) at an array of angles, (n, K)
    each, from one call over the distinct xi; the BS sits at the panel's
    angle 0."""
    xi_u, inv = np.unique(np.atleast_1d(xi), return_inverse=True)
    eta, deta = harmonic_pattern_batch(panel, code, harmonics, xi_u, 0.0, mode)
    return eta.T[inv], deta.T[inv]


def _db_traces(xi, alpha, ula: UlaLayout, panel: PanelLayout, code: CodingMatrix,
               harmonics: HarmonicSet, pilots: PilotMatrix, mode: WavelengthMode):
    """Double-bounce analogues of :func:`_sb_traces`: the harmonic inner
    products de^H de, de^H e, e^H e per cell, each times tr(B G B^H)."""
    eta, deta = _patterns(xi, panel, code, harmonics, mode)
    t_b = _db_trace(alpha, ula, pilots)
    return np.real(_inner(deta, deta)) * t_b, _inner(deta, eta) * t_b, np.real(_inner(eta, eta)) * t_b


def _gain_fims(gain, t_dd, t_ad, t_aa, noise_power: float) -> np.ndarray:
    """(n, 3, 3) FIMs over (angle, Re b, Im b) from per-cell trace terms."""
    x = np.conj(gain) * t_ad
    z = np.zeros_like(t_aa)
    f = [[np.abs(gain) ** 2 * t_dd, x.real, -x.imag], [x.real, t_aa, z], [-x.imag, z, t_aa]]
    return (2.0 / noise_power) * np.moveaxis(np.array(f), (0, 1), (-2, -1))


def _angle_efim(gain, t_dd, t_ad, t_aa, noise_power: float) -> np.ndarray:
    """Angle EFIM (2 |b|^2 / sigma_n^2)(t_dd - |t_ad|^2 / t_aa) per cell: the
    Schur complement of the gain block of :func:`_gain_fims`.  NaN where the
    gain block is singular (t_aa <= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = (2.0 / noise_power) * np.abs(gain) ** 2 * (t_dd - np.abs(t_ad) ** 2 / t_aa)
    return np.where(t_aa > 0, e, np.nan)


def _crb(efim_values: np.ndarray) -> np.ndarray:
    """1 / EFIM where it is positive and finite, NaN (masked) elsewhere."""
    ok = (efim_values > 0) & np.isfinite(efim_values)
    return np.where(ok, 1.0 / np.where(ok, efim_values, 1.0), np.nan)


def fim_sb_single(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                  noise_power: float) -> FisherMatrix:
    """3x3 single-target single-bounce FIM over (alpha, Re b, Im b)."""
    f = _gain_fims(gain, *_sb_traces(alpha, ula, pilots), noise_power)[0]
    return FisherMatrix(entries=f, labels=("alpha", "re_gain", "im_gain"))


def crb_alpha_cells(alpha, gain, ula: UlaLayout, pilots: PilotMatrix,
                    noise_power: float) -> np.ndarray:
    """Closed-form CRB(alpha) at (n,) angles and gains; NaN where masked.

    sigma_n^2 / (2 |b|^2 (tr(dA G dA^H) - |tr(A G dA^H)|^2 / tr(A G A^H))):
    the Schur complement of the gain nuisance.  Masked where tr(A G A^H) <= 0
    or the denominator is not positive and finite.
    """
    return _crb(_angle_efim(gain, *_sb_traces(alpha, ula, pilots), noise_power))


def crb_alpha_closed(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float) -> float:
    """Closed-form CRB(alpha) at one angle (:func:`crb_alpha_cells`); raises where masked."""
    return _one(crb_alpha_cells(alpha, gain, ula, pilots, noise_power),
                "angle information vanished or fully absorbed by the gain nuisance")


def fim_db_single(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> FisherMatrix:
    """3x3 single-target double-bounce FIM over (xi, Re b, Im b).

    Blocks factor into the harmonic-vector inner products (eta, d eta) and
    the common spatial trace tr(B G B^H) with B = A + A^T.
    """
    traces = _db_traces(xi, alpha, ula, panel, code, harmonics, pilots, mode)
    f = _gain_fims(gain, *traces, noise_power)[0]
    return FisherMatrix(entries=f, labels=("xi", "re_gain", "im_gain"))


def crb_xi_cells(xi, alpha, gain, ula: UlaLayout, panel: PanelLayout, code: CodingMatrix,
                 harmonics: HarmonicSet, pilots: PilotMatrix, noise_power: float,
                 mode: WavelengthMode = WavelengthMode.EXACT) -> np.ndarray:
    """Closed-form CRB(xi) at (n,) angle pairs and gains; NaN where masked.

    sigma_n^2 / (2 |b|^2 tr(B G B^H) (de^H de - |de^H e|^2 / e^H e)); the
    harmonic Schur term multiplies the spatial trace.  Certified against
    numeric inversion of :func:`fim_db_single`.  Masked where e^H e or
    tr(B G B^H) is not positive (their product, as e^H e >= 0 by
    construction) or the denominator is not positive and finite.
    """
    traces = _db_traces(xi, alpha, ula, panel, code, harmonics, pilots, mode)
    return _crb(_angle_efim(gain, *traces, noise_power))


def crb_xi_closed(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Closed-form CRB(xi) at one angle pair (:func:`crb_xi_cells`); raises where masked."""
    return _one(crb_xi_cells(xi, alpha, gain, ula, panel, code, harmonics, pilots,
                             noise_power, mode), "xi information vanished")


def _efims(f: np.ndarray, k: int, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Equivalent information F_aa - F_ab F_bb^{-1} F_ab^T of the leading k
    (angle) parameters of stacked (n, d, d) FIMs, with the gain parameters
    as nuisance: (n, k, k), NaN where the gain block F_bb is masked."""
    f_aa, f_ab, f_bb = f[:, :k, :k], f[:, :k, k:], f[:, k:, k:]
    if not f_bb.size:
        return f_aa.copy()
    ok, _ = _certified_inverse(f_bb, limit)
    out = np.full(f_aa.shape, np.nan)
    out[ok] = f_aa[ok] - f_ab[ok] @ np.linalg.solve(f_bb[ok], np.swapaxes(f_ab[ok], 1, 2))
    return out


def crbs_cells(f: np.ndarray, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Diagonals of the inverses of stacked (n, k, k) FIMs, (n, k), inverted
    on the diagonally-normalized system so mixed angle/gain units do not
    degrade them; NaN rows where masked (see :func:`_inverse`)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.diagonal(f, axis1=1, axis2=2))
        normalized = f / (s[:, :, None] * s[:, None, :])
        return np.diagonal(_inverse(normalized, limit), axis1=1, axis2=2) / s**2


def crbs_from_fim(fim: FisherMatrix, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Diagonal of the FIM inverse (:func:`crbs_cells`); raises instead of
    pseudo-inverting."""
    crbs = crbs_cells(fim.entries[None], limit)[0]
    if np.isnan(crbs).any():
        raise SingularInformation(
            f"scaled condition number {fim.condition_number():.3e} exceeds {limit:.1e}"
        )
    return crbs


@dataclass(frozen=True)
class TargetState:
    """Angles and bounce gains of one target, as consumed by the FIMs, or
    (n,) arrays of them for n targets or grid cells."""

    alpha: float
    xi: float
    sb_gain: complex
    db_gain: complex


def _stacked(states) -> TargetState:
    """One TargetState of (n,) arrays from n scalar ones."""
    return TargetState(*(np.array(v) for v in zip(*(
        (t.alpha, t.xi, t.sb_gain, t.db_gain) for t in states))))


def fim_multi_target(targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float, panel: PanelLayout | None = None,
                     code: CodingMatrix | None = None,
                     harmonics: HarmonicSet | None = None,
                     mode: WavelengthMode = WavelengthMode.EXACT) -> FisherMatrix:
    """Full numeric FIM for R targets, kind "sb" (alpha set) or "db" (xi set).

    The first target takes parameter index 0 of
    :meth:`MultiTargetFimBuilder.fim`; reduces exactly to the single-target
    closed forms at R = 1.
    """
    builder = MultiTargetFimBuilder(targets[1:], kind, ula, pilots, noise_power, panel,
                                    code, harmonics, mode)
    return builder.fim(targets[0])


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b over the last two axes."""
    return np.swapaxes(a, -1, -2).conj() @ b


class MultiTargetFimBuilder:
    """Caches the fixed targets' factors and their Gram block across a grid
    sweep.

    Each target has the columns d (angle), h (Re b) and 1j h (Im b); d and h
    are kron(x, w) of a harmonic factor x (the gain for the single bounce;
    gain * d eta and eta for the double bounce) and a spatial factor w of
    length M S from :func:`.channel.vec_outer`, as in the echo.  Inner products factor as (x^H y)(w^H v), so the |H| M S-long
    columns are never formed; per cell only the moving target's factors are
    formed, against themselves and the cached fixed ones.
    """

    def __init__(self, fixed_targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                 noise_power: float, panel: PanelLayout | None = None,
                 code: CodingMatrix | None = None,
                 harmonics: HarmonicSet | None = None,
                 mode: WavelengthMode = WavelengthMode.EXACT):
        if kind not in ("sb", "db"):
            raise ValueError("kind must be 'sb' or 'db'")
        self._model = (kind, ula, pilots, panel, code, harmonics, mode)
        self._c = 2.0 / noise_power
        self._fixed = None
        if fixed_targets:
            # fixed factors as columns [d_1, h_1, d_2, h_2, ..]
            x, w = (np.moveaxis(a, 0, 1).reshape(a.shape[1], -1)
                    for a in self._factors(_stacked(fixed_targets)))
            self._fixed = (x, w, _gram(x, x) * _gram(w, w))
        # FIM parameter p is Gram column j[p] times phase[p]: angle_t -> d_t,
        # Re b_t -> h_t, Im b_t -> 1j h_t, in the order [angles | gains]
        r = len(fixed_targets) + 1
        self._j = np.concatenate([2 * np.arange(r), np.repeat(2 * np.arange(r) + 1, 2)])
        self._phase = np.array([1.0] * r + [1.0, 1j] * r)
        angle = "alpha" if kind == "sb" else "xi"
        self._labels = tuple([f"{angle}_{i}" for i in range(r)]
                             + [f"{part}_gain_{i}" for i in range(r) for part in ("re", "im")])

    def _factors(self, t: TargetState):
        """(harmonic (n, K, 2), spatial (n, M S, 2)) factors of the columns
        [d, h] of n targets."""
        kind, ula, pilots, panel, code, harmonics, mode = self._model
        x, a = pilots.symbols, _rows(ula, t.alpha)
        if kind == "sb":
            da = _rows(ula, t.alpha, derivative=True)
            w = [vec_outer(da, a, x) + vec_outer(a, da, x), vec_outer(a, a, x)]
            return np.stack([t.sb_gain, np.ones_like(t.sb_gain)], -1)[:, None], np.stack(w, -1)
        s = np.broadcast_to(_rows(ula, 0.0), a.shape)
        v = vec_outer(a, s, x) + vec_outer(s, a, x)
        eta, deta = _patterns(t.xi, panel, code, harmonics, mode)
        return np.stack([t.db_gain[:, None] * deta, eta], -1), np.stack([v, v], -1)

    def fim_cells(self, moving: TargetState) -> np.ndarray:
        """(n, 3R, 3R) FIMs with the moving target, given as (n,) arrays, as
        parameter index 0."""
        x, w = self._factors(moving)
        g = _gram(x, x) * _gram(w, w)
        if self._fixed is not None:
            x_f, w_f, g_f = self._fixed
            cross = _gram(x, x_f) * _gram(w, w_f)
            g = np.block([[g, cross],
                          [np.swapaxes(cross, 1, 2).conj(), np.broadcast_to(g_f, (len(g),) + g_f.shape)]])
        j, ph = self._j, self._phase
        f = self._c * np.real(ph.conj()[:, None] * ph * g[:, j[:, None], j])
        return 0.5 * (f + np.swapaxes(f, 1, 2))

    def fim(self, moving: TargetState) -> FisherMatrix:
        """FIM with the moving target as parameter index 0 (:meth:`fim_cells`)."""
        return FisherMatrix(entries=self.fim_cells(_stacked([moving]))[0], labels=self._labels)


def _inverse(f: np.ndarray, limit: float) -> np.ndarray:
    """Inverses of stacked (n, k, k) FIMs; NaN where the scaled condition
    number exceeds ``limit`` (never a pseudo-inverse)."""
    ok, x = _certified_inverse(f, limit)
    return np.where(ok[:, None, None], x, np.nan)


def _position_peb(q, geom: SceneGeometry, e: np.ndarray, limit: float) -> np.ndarray:
    """sqrt(Tr(F^{-1})) in meters at stacked points q (n, 3) of the (x, z)
    information F = T^T diag(e) T from angle-pair information e (n, 2).

    NaN where e is NaN, where either angle information is negative (the
    ``negative_info`` mask: an angle EFIM that came out indefinite, as when
    a numerically singular FIM has a well-conditioned gain block) or where
    F fails the condition limit.
    """
    e = np.where((e < 0).any(axis=-1, keepdims=True), np.nan, e)
    t = jacobian_angles_to_position(q, geom)
    f = np.einsum("nki,nk,nkj->nij", t, e, t)
    return np.sqrt(np.trace(_inverse(f, limit), axis1=-2, axis2=-1))


def peb_cells(q, state: TargetState, geom: SceneGeometry, ula: UlaLayout,
              panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
              pilots: PilotMatrix, noise_power: float,
              mode: WavelengthMode = WavelengthMode.EXACT,
              limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Single-target PEB at stacked points q (n, 3), whose angles and gains
    ``state`` holds as (n,) arrays.

    The position information is T^T diag(EFIM_alpha, EFIM_xi) T.  It is
    degenerate on the BS-panel axis, where both angle gradients align and
    the position information is rank one.  NaN where masked: a singular
    gain block (see :func:`_angle_efim`) or the condition limit.
    """
    e_a = _angle_efim(state.sb_gain, *_sb_traces(state.alpha, ula, pilots), noise_power)
    e_x = _angle_efim(state.db_gain, *_db_traces(state.xi, state.alpha, ula, panel, code,
                                                 harmonics, pilots, mode), noise_power)
    return _position_peb(q, geom, np.stack([e_a, e_x], -1), limit)


def peb_multi_cells(f_sb: np.ndarray, f_db: np.ndarray, q, geom: SceneGeometry,
                    which: int = 0, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """PEB of target ``which``, at stacked points q (n, 3), from its stacked
    (n, 3R, 3R) multi-target FIMs; NaN where masked.

    The angle EFIMs (R x R each) take every gain as nuisance and combine,
    under the independent-path assumption, into a block-diagonal information
    matrix over all 2R angles.  Only the probed target is re-parameterized
    to position coordinates: the equivalent information of its angle pair
    (marginalizing every other target's angles) is pushed through its
    Jacobian.  Nuisance targets therefore only need identifiable angles,
    not identifiable positions -- a nuisance target sitting on the BS-panel
    axis degrades nothing but its own (never requested) position.  Masked:
    a singular gain block on either path, the 2R x 2R angle information or
    the 2 x 2 position information over the condition limit.
    """
    r = f_sb.shape[-1] // 3
    f_ang = np.zeros((len(f_sb), 2 * r, 2 * r))
    f_ang[:, :r, :r] = _efims(f_sb, r, limit)
    f_ang[:, r:, r:] = _efims(f_db, r, limit)
    # the covariance is block diagonal, so the pair's equivalent information
    # is diagonal: one over each of its two variances
    idx = [which, r + which]
    return _position_peb(q, geom, 1.0 / _inverse(f_ang, limit)[:, idx, idx], limit)


def crb_ris_cells(xi, alpha, gain, profile: RisProfile, ris_layout: PanelLayout,
                  ula: UlaLayout, pilots: PilotMatrix, noise_power: float,
                  limit: float = CONDITION_LIMIT):
    """(FIMs (n, 3, 3) over (xi, Re b, Im b), CRB(xi) (n,)) of the
    fixed-profile linear-panel baseline at (n,) angle pairs and gains.

    The one response g(xi) = a_R(xi)^T diag(w) a_R(0) takes the place
    of the harmonic vector of :func:`_db_traces`.  The angle enters only
    through gain * g(xi), so the matrix is singular by construction while
    its gain block stays invertible.  The CRB is NaN where masked.
    """
    g = ris_response(profile, ris_layout, np.atleast_1d(xi), 0.0)
    dg = ris_response_derivative(profile, ris_layout, np.atleast_1d(xi), 0.0)
    t_b = _db_trace(alpha, ula, pilots)
    f = _gain_fims(gain, np.abs(dg) ** 2 * t_b, np.conj(dg) * g * t_b, np.abs(g) ** 2 * t_b,
                   noise_power)
    return f, _inverse(f, limit)[:, 0, 0]


def crb_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float, limit: float = CONDITION_LIMIT):
    """(FisherMatrix, CRB(xi)) of :func:`crb_ris_cells` at one angle pair;
    the CRB is +inf where masked, never a pseudo-inverse artifact."""
    f, crb = crb_ris_cells(xi, alpha, gain, profile, ris_layout, ula, pilots, noise_power,
                           limit)
    return (FisherMatrix(entries=f[0], labels=("xi", "re_gain", "im_gain")),
            float(crb[0]) if np.isfinite(crb[0]) else np.inf)
