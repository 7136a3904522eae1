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


def scale_invariant_cond(matrix: np.ndarray) -> float:
    """Condition number after symmetric diagonal normalization.

    Angle and gain parameters carry wildly different units, so the raw
    condition number of a mixed information matrix is dominated by scaling
    rather than identifiability.  Normalizing to unit diagonal measures the
    actual parameter coupling; a zero diagonal entry (a parameter with no
    information at all) reports as infinite.
    """
    m = np.asarray(matrix, dtype=float)
    d = np.diag(m)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        return np.inf
    s = np.sqrt(d)
    return float(np.linalg.cond(m / np.outer(s, s)))


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


def _sb_traces(alpha: float, ula: UlaLayout, pilots: PilotMatrix):
    """Trace terms of the single-bounce blocks with the exact Gram X X^H."""
    a = steering_vector(ula, alpha)
    da = steering_derivative(ula, alpha)
    amat = np.outer(a, a)
    damat = np.outer(da, a) + np.outer(a, da)
    g = pilots.gram()
    t_dd = np.real(np.trace(damat @ g @ damat.conj().T))
    t_ad = np.trace(amat @ g @ damat.conj().T)
    t_aa = np.real(np.trace(amat @ g @ amat.conj().T))
    return t_dd, t_ad, t_aa


def fim_sb_single(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                  noise_power: float) -> FisherMatrix:
    """3x3 single-target single-bounce FIM over (alpha, Re b, Im b)."""
    t_dd, t_ad, t_aa = _sb_traces(alpha, ula, pilots)
    c = 2.0 / noise_power
    cross = np.conj(gain) * t_ad
    f = np.array(
        [
            [c * abs(gain) ** 2 * t_dd, c * cross.real, c * (1j * cross).real],
            [c * cross.real, c * t_aa, 0.0],
            [c * (1j * cross).real, 0.0, c * t_aa],
        ]
    )
    return FisherMatrix(entries=f, labels=("alpha", "re_gain", "im_gain"))


def crb_alpha_closed(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float) -> float:
    """Closed-form CRB(alpha): Schur complement of the gain nuisance.

    sigma_n^2 / (2 |b|^2 (tr(dA G dA^H) - |tr(A G dA^H)|^2 / tr(A G A^H))).
    """
    t_dd, t_ad, t_aa = _sb_traces(alpha, ula, pilots)
    if t_aa <= 0:
        raise SingularInformation("gain information vanished")
    schur = t_dd - abs(t_ad) ** 2 / t_aa
    denom = 2.0 * abs(gain) ** 2 * schur
    if denom <= 0 or not np.isfinite(denom):
        raise SingularInformation("angle information fully absorbed by the gain nuisance")
    return noise_power / denom


def _db_parts(xi: float, alpha: float, ula: UlaLayout, panel: PanelLayout,
              code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
              mode: WavelengthMode, phi_s: float = 0.0):
    eta, deta = harmonic_pattern_batch(panel, code, harmonics, xi, phi_s, mode)
    a_r = steering_vector(ula, alpha)
    a_s = steering_vector(ula, phi_s)
    amat = np.outer(a_r, a_s)
    bmat = amat + amat.T
    t_b = np.real(np.trace(bmat @ pilots.gram() @ bmat.conj().T))
    return eta[:, 0], deta[:, 0], t_b


def fim_db_single(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> FisherMatrix:
    """3x3 single-target double-bounce FIM over (xi, Re b, Im b).

    Blocks factor into the harmonic-vector inner products (eta, d eta) and
    the common spatial trace tr(B G B^H) with B = A + A^T.
    """
    eta, deta, t_b = _db_parts(xi, alpha, ula, panel, code, harmonics, pilots, mode)
    c = 2.0 / noise_power
    e_dd = np.real(np.vdot(deta, deta))
    e_de = np.vdot(deta, eta)
    e_ee = np.real(np.vdot(eta, eta))
    cross = np.conj(gain) * e_de * t_b
    f = np.array(
        [
            [c * abs(gain) ** 2 * e_dd * t_b, c * cross.real, c * (1j * cross).real],
            [c * cross.real, c * e_ee * t_b, 0.0],
            [c * (1j * cross).real, 0.0, c * e_ee * t_b],
        ]
    )
    return FisherMatrix(entries=f, labels=("xi", "re_gain", "im_gain"))


def crb_xi_closed(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Closed-form CRB(xi) in product Schur-complement form.

    sigma_n^2 / (2 |b|^2 tr(B G B^H) (de^H de - |de^H e|^2 / e^H e)); the
    harmonic Schur term multiplies the spatial trace.  Certified against
    numeric inversion of :func:`fim_db_single`.
    """
    eta, deta, t_b = _db_parts(xi, alpha, ula, panel, code, harmonics, pilots, mode)
    e_ee = np.real(np.vdot(eta, eta))
    if e_ee <= 0 or t_b <= 0:
        raise SingularInformation("no double-bounce energy at this angle")
    schur = np.real(np.vdot(deta, deta)) - abs(np.vdot(deta, eta)) ** 2 / e_ee
    denom = 2.0 * abs(gain) ** 2 * t_b * schur
    if denom <= 0 or not np.isfinite(denom):
        raise SingularInformation("xi information vanished")
    return noise_power / denom


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
    """Angles and bounce gains of one target, as consumed by the FIMs."""

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
    """Caches the fixed targets' derivative columns across a grid sweep.

    Grid experiments move one target over thousands of cells while the rest
    of the scene stays put; only the moving target's columns change.
    """

    def __init__(self, fixed_targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                 noise_power: float, panel: PanelLayout | None = None,
                 code: CodingMatrix | None = None,
                 harmonics: HarmonicSet | None = None,
                 mode: WavelengthMode = WavelengthMode.EXACT, phi_s: float = 0.0):
        self.kind = kind
        self.ula = ula
        self.pilots = pilots
        self.noise_power = noise_power
        self.panel = panel
        self.code = code
        self.harmonics = harmonics
        self.mode = mode
        self.phi_s = phi_s
        self._fixed = [
            target_derivative_columns(t, kind, ula, pilots, panel, code, harmonics, mode, phi_s)
            for t in fixed_targets
        ]

    def fim(self, moving: TargetState) -> FisherMatrix:
        """FIM with the moving target as parameter index 0."""
        cols = [target_derivative_columns(moving, self.kind, self.ula, self.pilots,
                                          self.panel, self.code, self.harmonics,
                                          self.mode, self.phi_s)] + self._fixed
        angle = "alpha" if self.kind == "sb" else "xi"
        labels = [f"{angle}_{i}" for i in range(len(cols))]
        gain_cols = []
        for i, (_, h) in enumerate(cols):
            labels.extend([f"re_gain_{i}", f"im_gain_{i}"])
            gain_cols.extend([h, 1j * h])
        f = fim_generic([d for d, _ in cols] + gain_cols, self.noise_power)
        return FisherMatrix(entries=f.entries, labels=tuple(labels))


def _position_peb(f_pos: np.ndarray, limit: float) -> float:
    """sqrt(Tr(F^{-1})) in meters of a 2x2 (x, z) information matrix.

    Raises SingularInformation when masked by the condition limit.
    """
    cond = scale_invariant_cond(f_pos)
    if not np.isfinite(cond) or cond > limit:
        raise SingularInformation("position information is rank deficient here")
    return float(np.sqrt(np.trace(np.linalg.inv(f_pos))))


def peb_single(q, geom: SceneGeometry, ula: UlaLayout, panel: PanelLayout,
               code: CodingMatrix, harmonics: HarmonicSet, pilots: PilotMatrix,
               noise_power: float, sb_gain: complex, db_gain: complex,
               mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Single-target PEB at q from the two per-angle EFIMs.

    The position information is T^T diag(EFIM_alpha, EFIM_xi) T.  It is
    degenerate on the BS-panel axis, where both angle gradients align and
    the position information is rank one.
    """
    ang = angles_from_position(q, geom)
    f_sb = fim_sb_single(ang.alpha, sb_gain, ula, pilots, noise_power)
    f_db = fim_db_single(ang.xi, ang.alpha, db_gain, ula, panel, code, harmonics,
                         pilots, noise_power, mode)
    t = jacobian_angles_to_position(q, geom)
    return _position_peb(t.T @ np.diag([efim(f_sb), efim(f_db)]) @ t, CONDITION_LIMIT)


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
    return _position_peb(t.T @ f_pair @ t, limit)


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


def fim_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float, phi_s: float = 0.0) -> FisherMatrix:
    """3x3 FIM of the fixed-profile linear-panel baseline over (xi, Re b, Im b).

    The double-bounce terms reduce to a single scalar response
    g(xi) = a_R(xi)^T diag(w) a_R(phi_s); with one fixed profile the angle
    enters only through the product gain * g(xi), so the xi information
    collapses once the gain nuisance is removed.
    """
    g = ris_response(profile, ris_layout, xi, phi_s)
    dg = ris_response_derivative(profile, ris_layout, xi, phi_s)
    a_r = steering_vector(ula, alpha)
    a_s = steering_vector(ula, phi_s)
    amat = np.outer(a_r, a_s)
    v34 = vec((amat + amat.T) @ pilots.symbols)
    cols = [gain * dg * v34, g * v34, 1j * g * v34]
    f = fim_generic(cols, noise_power)
    return FisherMatrix(entries=f.entries, labels=("xi", "re_gain", "im_gain"))


def crb_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float, phi_s: float = 0.0,
            limit: float = CONDITION_LIMIT):
    """(FisherMatrix, CRB(xi)) for the linear baseline; inf when masked.

    The gain sub-block stays invertible (finite gain CRB conditioned on the
    angle), but the full matrix is singular by construction, so the angle
    CRB is reported as +inf rather than a pseudo-inverse artifact.
    """
    f = fim_ris(xi, alpha, gain, profile, ris_layout, ula, pilots, noise_power, phi_s)
    if f.is_masked(limit):
        return f, np.inf
    return f, float(np.linalg.inv(f.entries)[0, 0])
