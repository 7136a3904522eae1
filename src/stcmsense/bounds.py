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

Singularity policy: any matrix with condition number above
``constants.CONDITION_LIMIT`` is reported masked, never pseudo-inverted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, UlaLayout, db_regressor, sb_regressor, steering_derivative, steering_vector, vec
from .constants import CONDITION_LIMIT
from .errors import DimensionMismatch, SingularInformation, SingularNuisanceBlock
from .geometry import SceneGeometry, angles_from_position, jacobian_angles_to_position
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
    d = np.diagonal(m, axis1=-2, axis2=-1)
    bad = np.any(~(d > 0), axis=-1) | ~np.all(np.isfinite(m), axis=(-2, -1))
    s = np.sqrt(np.where(bad[..., None], 1.0, d))
    scaled = np.where(bad[..., None, None], np.eye(m.shape[-1]),
                      m / (s[..., :, None] * s[..., None, :]))
    cond = np.where(bad, np.inf, np.linalg.cond(scaled))
    return float(cond) if cond.ndim == 0 else cond


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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def condition_number(self) -> float:
        """Scale-invariant conditioning; see :func:`scale_invariant_cond`."""
        return scale_invariant_cond(self.entries)

    def is_masked(self, limit: float = CONDITION_LIMIT) -> bool:
        c = self.condition_number()
        return (not np.isfinite(c)) or c > limit


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


def _db_trace(alpha, ula: UlaLayout, pilots: PilotMatrix, phi_s: float = 0.0) -> np.ndarray:
    """tr(B G B^H) per angle with B = a_r a_s^T + a_s a_r^T, a_r = a(alpha)."""
    r, s = _rows(ula, alpha), _rows(ula, phi_s)
    g = pilots.gram()
    return np.real(_quad(s, g, s) * _inner(r, r) + _quad(s, g, r) * _inner(s, r)
                   + _quad(r, g, s) * _inner(r, s) + _quad(r, g, r) * _inner(s, s))


def _db_traces(xi, alpha, ula: UlaLayout, panel: PanelLayout, code: CodingMatrix,
               harmonics: HarmonicSet, pilots: PilotMatrix, mode: WavelengthMode,
               phi_s: float = 0.0):
    """Double-bounce analogues of :func:`_sb_traces`: the harmonic inner
    products de^H de, de^H e, e^H e per cell, each times tr(B G B^H).

    The patterns come from one call over the distinct xi.
    """
    xi_u, inv = np.unique(np.atleast_1d(xi), return_inverse=True)
    eta, deta = harmonic_pattern_batch(panel, code, harmonics, xi_u, phi_s, mode)
    eta, deta = np.ascontiguousarray(eta.T), np.ascontiguousarray(deta.T)
    t_b = _db_trace(alpha, ula, pilots, phi_s)
    return (np.real(_inner(deta, deta))[inv] * t_b, _inner(deta, eta)[inv] * t_b,
            np.real(_inner(eta, eta))[inv] * t_b)


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


def efim(fim: FisherMatrix, n_angles: int = 1):
    """Equivalent information for the leading angle block.

    F_aa - F_ab F_bb^{-1} F_ab^T with the gain parameters as nuisance.
    Returns a scalar when ``n_angles`` == 1, else the (n_angles, n_angles)
    block.
    """
    f = fim.entries
    k = n_angles
    f_aa = f[:k, :k]
    f_ab = f[:k, k:]
    f_bb = f[k:, k:]
    if f_bb.size:
        cond = scale_invariant_cond(f_bb)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SingularNuisanceBlock("gain block is singular")
        out = f_aa - f_ab @ np.linalg.solve(f_bb, f_ab.T)
    else:
        out = f_aa.copy()
    return float(out[0, 0]) if k == 1 else out


def crbs_from_fim(fim: FisherMatrix, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Diagonal of the FIM inverse; raises instead of pseudo-inverting.

    The inversion runs on the diagonally-normalized system and the scales
    are restored afterwards, so mixed angle/gain units do not degrade it.
    """
    if fim.is_masked(limit):
        raise SingularInformation(
            f"scaled condition number {fim.condition_number():.3e} exceeds {limit:.1e}"
        )
    s = np.sqrt(np.diag(fim.entries))
    normalized = fim.entries / np.outer(s, s)
    return np.diag(np.linalg.inv(normalized)) / s**2


@dataclass(frozen=True)
class TargetState:
    """Angles and bounce gains of one target, as consumed by the FIMs, or
    (n,) arrays of them for n grid cells."""

    alpha: float
    xi: float
    sb_gain: complex
    db_gain: complex


def target_derivative_columns(t: TargetState, kind: str, ula: UlaLayout,
                              pilots: PilotMatrix, panel: PanelLayout | None = None,
                              code: CodingMatrix | None = None,
                              harmonics: HarmonicSet | None = None,
                              mode: WavelengthMode = WavelengthMode.EXACT,
                              phi_s: float = 0.0):
    """(angle derivative column, regressor) of one target for the given path."""
    if kind == "sb":
        a = steering_vector(ula, t.alpha)
        da = steering_derivative(ula, t.alpha)
        damat = np.outer(da, a) + np.outer(a, da)
        h = sb_regressor(t.alpha, ula, pilots)
        dh = vec(damat @ pilots.symbols)
        return t.sb_gain * dh, h
    if kind == "db":
        eta, deta = harmonic_pattern_batch(panel, code, harmonics, t.xi, phi_s, mode)
        h = db_regressor(t.alpha, eta[:, 0], ula, pilots, phi_s)
        dh = db_regressor(t.alpha, deta[:, 0], ula, pilots, phi_s)
        return t.db_gain * dh, h
    raise ValueError("kind must be 'sb' or 'db'")


def fim_multi_target(targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float, panel: PanelLayout | None = None,
                     code: CodingMatrix | None = None,
                     harmonics: HarmonicSet | None = None,
                     mode: WavelengthMode = WavelengthMode.EXACT,
                     phi_s: float = 0.0) -> FisherMatrix:
    """Full numeric FIM for R targets, kind "sb" (alpha set) or "db" (xi set).

    The first target takes parameter index 0 of
    :meth:`MultiTargetFimBuilder.fim`; reduces exactly to the single-target
    closed forms at R = 1.
    """
    builder = MultiTargetFimBuilder(targets[1:], kind, ula, pilots, noise_power, panel,
                                    code, harmonics, mode, phi_s)
    return builder.fim(targets[0])


class MultiTargetFimBuilder:
    """Caches the fixed targets' derivative columns and their Gram block
    across a grid sweep.

    Grid experiments move one target over thousands of cells while the rest
    of the scene stays put; per cell only the moving target's three columns
    (angle, Re b, Im b) are formed, against themselves and the fixed ones.
    """

    def __init__(self, fixed_targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                 noise_power: float, panel: PanelLayout | None = None,
                 code: CodingMatrix | None = None,
                 harmonics: HarmonicSet | None = None,
                 mode: WavelengthMode = WavelengthMode.EXACT, phi_s: float = 0.0):
        self._columns = functools.partial(target_derivative_columns, kind=kind, ula=ula,
                                          pilots=pilots, panel=panel, code=code,
                                          harmonics=harmonics, mode=mode, phi_s=phi_s)
        self._c = 2.0 / noise_power
        fixed = [self._columns(t) for t in fixed_targets]
        # fixed columns grouped as [angles, (Re b, Im b) per target]
        cols = [d for d, _ in fixed] + [c for _, h in fixed for c in (h, 1j * h)]
        self._fixed = np.column_stack(cols) if cols else None
        self._gram = fim_generic(cols, noise_power).entries if cols else None
        # parameter order from the grouped order [moving 3 | fixed angles | fixed gains]
        r = len(fixed) + 1
        self._order = ([0] + list(range(3, r + 2)) + [1, 2]
                       + list(range(r + 2, 3 * r)))
        angle = "alpha" if kind == "sb" else "xi"
        self._labels = tuple([f"{angle}_{i}" for i in range(r)]
                             + [f"{part}_gain_{i}" for i in range(r) for part in ("re", "im")])

    def fim(self, moving: TargetState) -> FisherMatrix:
        """FIM with the moving target as parameter index 0."""
        d, h = self._columns(moving)
        m = np.column_stack([d, h, 1j * h])
        f = self._c * np.real(m.conj().T @ m)
        if self._fixed is not None:
            cross = self._c * np.real(m.conj().T @ self._fixed)
            f = np.block([[f, cross], [cross.T, self._gram]])
        f = f[np.ix_(self._order, self._order)]
        return FisherMatrix(entries=0.5 * (f + f.T), labels=self._labels)


def _inverse(f: np.ndarray, limit: float) -> np.ndarray:
    """Inverses of stacked (n, k, k) FIMs; NaN where the scaled condition
    number exceeds ``limit`` (never a pseudo-inverse)."""
    ok = scale_invariant_cond(f) <= limit
    out = np.full(f.shape, np.nan)
    out[ok] = np.linalg.inv(f[ok])
    return out


def _position_peb(f_pos: np.ndarray, limit: float) -> np.ndarray:
    """sqrt(Tr(F^{-1})) in meters of stacked (n, 2, 2) (x, z) information matrices."""
    return np.sqrt(np.trace(_inverse(f_pos, limit), axis1=-2, axis2=-1))


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
    t = jacobian_angles_to_position(q, geom)
    return _position_peb(np.einsum("nki,nk,nkj->nij", t, np.stack([e_a, e_x], -1), t), limit)


def peb_single(q, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
               code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
               noise_power: float, sb_gain: complex, db_gain: complex,
               mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Single-target PEB at one point (:func:`peb_cells`); raises where masked."""
    q = np.asarray(q, dtype=float)[None]
    ang = angles_from_position(q, geom)
    state = TargetState(ang.alpha, ang.xi, np.array([sb_gain]), np.array([db_gain]))
    return _one(peb_cells(q, state, geom, ula, panel, code, harmonics, pilots, noise_power,
                          mode), "position information is rank deficient here")


def peb_multi_from_fims(f_sb: FisherMatrix, f_db: FisherMatrix, positions,
                        geom: SceneGeometry, which: int = 0,
                        limit: float = CONDITION_LIMIT) -> float:
    """PEB of target ``which`` from precomputed multi-target angle FIMs.

    The angle EFIMs (R x R each) take every gain as nuisance and combine,
    under the independent-path assumption, into a block-diagonal information
    matrix over all 2R angles.  Only the probed target is re-parameterized
    to position coordinates: the equivalent information of its angle pair
    (marginalizing every other target's angles) is pushed through its
    Jacobian.  Nuisance targets therefore only need identifiable angles,
    not identifiable positions -- a nuisance target sitting on the BS-panel
    axis degrades nothing but its own (never requested) position.
    """
    r = len(positions)
    try:
        e_a = np.atleast_2d(efim(f_sb, n_angles=r))
        e_x = np.atleast_2d(efim(f_db, n_angles=r))
    except SingularNuisanceBlock as exc:
        raise SingularInformation(str(exc))
    f_ang = np.zeros((2 * r, 2 * r))
    f_ang[:r, :r] = e_a
    f_ang[r:, r:] = e_x
    cond = scale_invariant_cond(f_ang)
    if not np.isfinite(cond) or cond > limit:
        raise SingularInformation("angle information is rank deficient")
    cov = np.linalg.inv(f_ang)
    idx = [which, r + which]
    pair_cov = cov[np.ix_(idx, idx)]
    f_pair = np.linalg.inv(pair_cov)
    t = jacobian_angles_to_position(positions[which], geom)
    return _one(_position_peb((t.T @ f_pair @ t)[None], limit),
                "position information is rank deficient here")


def peb_multi(targets, positions, geom: SceneGeometry, ula: UlaLayout,
              panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
              pilots: PilotMatrix, noise_power: float,
              mode: WavelengthMode = WavelengthMode.EXACT,
              which: int = 0, limit: float = CONDITION_LIMIT) -> float:
    """PEB of target ``which`` in an R-target scene."""
    f_sb = fim_multi_target(targets, "sb", ula, pilots, noise_power)
    f_db = fim_multi_target(targets, "db", ula, pilots, noise_power, panel, code,
                            harmonics, mode)
    return peb_multi_from_fims(f_sb, f_db, positions, geom, which, limit)


def crb_ris_cells(xi, alpha, gain, profile: RisProfile, ris_layout: PanelLayout,
                  ula: UlaLayout, pilots: PilotMatrix, noise_power: float,
                  phi_s: float = 0.0, limit: float = CONDITION_LIMIT):
    """(FIMs (n, 3, 3) over (xi, Re b, Im b), CRB(xi) (n,)) of the
    fixed-profile linear-panel baseline at (n,) angle pairs and gains.

    The one response g(xi) = a_R(xi)^T diag(w) a_R(phi_s) takes the place
    of the harmonic vector of :func:`_db_traces`.  The angle enters only
    through gain * g(xi), so the matrix is singular by construction while
    its gain block stays invertible.  The CRB is NaN where masked.
    """
    g = ris_response(profile, ris_layout, np.atleast_1d(xi), phi_s)
    dg = ris_response_derivative(profile, ris_layout, np.atleast_1d(xi), phi_s)
    t_b = _db_trace(alpha, ula, pilots, phi_s)
    f = _gain_fims(gain, np.abs(dg) ** 2 * t_b, np.conj(dg) * g * t_b, np.abs(g) ** 2 * t_b,
                   noise_power)
    return f, _inverse(f, limit)[:, 0, 0]


def crb_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float, phi_s: float = 0.0,
            limit: float = CONDITION_LIMIT):
    """(FisherMatrix, CRB(xi)) of :func:`crb_ris_cells` at one angle pair;
    the CRB is +inf where masked, never a pseudo-inverse artifact."""
    f, crb = crb_ris_cells(xi, alpha, gain, profile, ris_layout, ula, pilots, noise_power,
                           phi_s, limit)
    return (FisherMatrix(entries=f[0], labels=("xi", "re_gain", "im_gain")),
            float(crb[0]) if np.isfinite(crb[0]) else np.inf)


def fim_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float, phi_s: float = 0.0) -> FisherMatrix:
    """3x3 FIM of the fixed-profile linear-panel baseline; see :func:`crb_ris_cells`."""
    return crb_ris(xi, alpha, gain, profile, ris_layout, ula, pilots, noise_power, phi_s)[0]
