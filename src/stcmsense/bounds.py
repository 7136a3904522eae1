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

Every map runs through :class:`MultiTargetFimBuilder` at any target count
R, which at R = 1 takes the closed forms.  With R > 1 targets the scaled
FIM is F = [[A, B], [B^T, C]] over [moving | fixed].  The fixed block C is
the same in every cell, so Q = C^-1 is certified once (if C fails, every F
does: kappa_2(F) >= kappa_2(C) by Cauchy interlacing).  Per cell, P = B Q
and T = (A - P B^T)^-1, the leading block of F^-1 (Kay, Estimation Theory,
1993, ch. 3), give kappa_F with no cancellation (:func:`_schur`):
||F||_F^2 = ||A||^2 + 2 ||B||^2 + ||C||^2 and ||F^-1||_F^2 = ||T||^2
+ 2 ||T P||^2 + ||Q||^2 + 2 tr(T P Q P^T) + tr(T P P^T T P P^T), every term
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, UlaLayout, _per_angle, steering_derivative, steering_vector
from .constants import CONDITION_LIMIT
from .errors import DimensionMismatch, SingularInformation
from .geometry import SceneGeometry, jacobian_angles_to_position
from .metasurface import (
    CodingMatrix,
    HarmonicSet,
    PanelLayout,
    RisProfile,
    WavelengthMode,
    _ris_terms,
    harmonic_pattern_batch,
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


# Margins of _decide: kappa_F <= PASS * limit passes a matrix,
# kappa_F > MASK * k * limit masks it, and the SVD decides the rest.
_PASS_MARGIN = 0.5
_MASK_MARGIN = 2.0


def _fro2(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms over the last two axes."""
    return np.sum(m * m, axis=(-2, -1))


def _decide(kappa_f: np.ndarray, bad: np.ndarray, k: int, limit: float, full) -> np.ndarray:
    """ok per member of a stack of k x k FIMs from kappa_F (a NaN decides
    nothing); ``full(rows)`` gives the undecided members for the SVD."""
    ok = ~bad & (kappa_f <= _PASS_MARGIN * limit)
    undecided = ~bad & ~ok & ~(np.isfinite(kappa_f) & (kappa_f > _MASK_MARGIN * k * limit))
    if undecided.any():
        ok[undecided] = scale_invariant_cond(full(undecided)) <= limit
    return ok


def _inv(g: np.ndarray):
    """(inverses, singular) of stacked (n, k, k) matrices.  Members LU finds
    exactly singular, which ``np.linalg.inv`` refuses, are named by slogdet
    (sign 0) and inverted as the identity; if slogdet misses one, all are."""
    singular = np.zeros(len(g), dtype=bool)
    try:
        return np.linalg.inv(g), singular
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(g)[0] == 0
        g = np.where(singular[:, None, None], np.eye(g.shape[-1]), g)
        try:
            return np.linalg.inv(g), singular
        except np.linalg.LinAlgError:
            return np.full(g.shape, np.nan), np.ones_like(singular)


def _certified_inverse(blocks, limit: float):
    """(ok, [x_i]) for stacked FIMs, block diagonal with the (n, k_i, k_i)
    ``blocks``: ok is their ``scale_invariant_cond <= limit`` and x_i[ok] is
    bitwise ``np.linalg.inv(blocks[i][ok])`` (LAPACK inverts each member on
    its own).  kappa_F sums the blocks' squared norms."""
    bad = np.any([_bad(f) for f in blocks], axis=0)
    gs = [np.where(bad[:, None, None], np.eye(f.shape[-1]), f) for f in blocks]
    xs, singular = zip(*map(_inv, gs))
    singular = np.any(singular, axis=0)
    s = [np.sqrt(np.diagonal(g, axis1=1, axis2=2)) for g in gs]
    ss = [v[:, :, None] * v[:, None, :] for v in s]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa_f = (np.sqrt(sum(_fro2(g / t) for g, t in zip(gs, ss)))
                   * np.sqrt(sum(_fro2(x * t) for x, t in zip(xs, ss))))
    kappa_f[singular] = np.nan  # NaN, as from an overflowed inverse, decides nothing
    k = [f.shape[-1] for f in blocks]
    ok = _decide(kappa_f, bad, sum(k), limit, lambda rows: np.block(
        [[f[rows] if i == j else np.zeros((rows.sum(), k[i], kj)) for j, kj in enumerate(k)]
         for i, f in enumerate(blocks)]))
    # passed rows LU left out; inv raises on an exactly singular one, as inv(f[ok]) does
    redo = ok & singular
    for f, x in zip(blocks, xs if redo.any() else ()):
        x[redo] = np.linalg.inv(f[redo])
    return ok, xs


def _full(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stacked [[A, B], [B^T, C]] from (n, j, j) A, (n, j, m) B and a shared C."""
    return np.block([[a, b], [np.swapaxes(b, 1, 2), np.broadcast_to(c, (len(a),) + c.shape)]])


def _shared_block(c: np.ndarray, limit: float):
    """(C, Q = C^-1, ||C||_F^2, ||Q||_F^2, ok) of a scaled (m, m) block that a
    stack shares; ok is whether C passes the limit."""
    ok, (q,) = _certified_inverse([c[None]], limit)
    return c, q[0], _fro2(c), _fro2(q[0]), ok[0]


def _schur(a: np.ndarray, b: np.ndarray, shared, limit: float):
    """(ok, T, P, kappa_F) of scaled stacks F = [[A, B], [B^T, C]] with
    (n, j, j) A, (n, j, m) B and C from :func:`_shared_block`: P = B Q and
    T = (A - P B^T)^-1.  ok is ``scale_invariant_cond(F) <= limit``, from the
    block kappa_F of the module docstring; all fail where C does."""
    c, q, c2, q2, c_ok = shared
    bad = ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2)) & c_ok)
    p = b @ q
    t, singular = _inv(a - p @ np.swapaxes(b, 1, 2))
    tp = t @ p
    tm = tp @ np.swapaxes(p, 1, 2)  # T P P^T; tr(T P Q P^T) sums (T P Q) * P
    with np.errstate(over="ignore", invalid="ignore"):
        inv2 = (_fro2(t) + 2.0 * _fro2(tp) + q2 + 2.0 * np.sum((tp @ q) * p, axis=(1, 2))
                + np.sum(tm * np.swapaxes(tm, 1, 2), axis=(1, 2)))
        kappa_f = np.sqrt(_fro2(a) + 2.0 * _fro2(b) + c2) * np.sqrt(inv2)
    kappa_f[singular] = np.nan
    ok = _decide(kappa_f, bad, a.shape[-1] + len(c), limit, lambda rows: _full(a[rows], b[rows], c))
    return ok, t, p, kappa_f


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


# Every spatial inner product (the traces below, MultiTargetFimBuilder) sums
#     vec(u2 v2^T X)^H vec(u1 v1^T X) = (v1^T G conj(v2)) (u2^H u1),
# the trace tr((u1 v1^T) G (u2 v2^T)^H), so per cell only length-M vectors
# are formed, never an M S-long vector or an M x M product.

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
    each, evaluated once per distinct xi (:func:`.channel._per_angle`); the
    BS sits at the panel's angle 0."""
    return _per_angle(lambda x: tuple(v.T for v in harmonic_pattern_batch(
        panel, code, harmonics, x, 0.0, mode)), xi)


def _db_traces(xi, alpha, ula: UlaLayout, panel: PanelLayout, code: CodingMatrix,
               harmonics: HarmonicSet, pilots: PilotMatrix, mode: WavelengthMode):
    """Double-bounce analogues of :func:`_sb_traces`: the harmonic inner
    products de^H de, de^H e, e^H e per cell, each times tr(B G B^H)."""
    eta, deta = _patterns(xi, panel, code, harmonics, mode)
    t_b = _per_angle(lambda a: _db_trace(a, ula, pilots), alpha)
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


def crb_alpha_closed(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float) -> float:
    """Closed-form CRB(alpha) at one angle; raises where masked.

    sigma_n^2 / (2 |b|^2 (tr(dA G dA^H) - |tr(A G dA^H)|^2 / tr(A G A^H))):
    the Schur complement of the gain nuisance.  Masked where tr(A G A^H) <= 0
    or the denominator is not positive and finite.
    """
    return _one(_crb(_angle_efim(gain, *_sb_traces(alpha, ula, pilots), noise_power)),
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


def crb_xi_closed(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Closed-form CRB(xi) at one angle pair; raises where masked.

    sigma_n^2 / (2 |b|^2 tr(B G B^H) (de^H de - |de^H e|^2 / e^H e)); the
    harmonic Schur term multiplies the spatial trace.  Certified against
    numeric inversion of :func:`fim_db_single`.  Masked where e^H e or
    tr(B G B^H) is not positive (their product, as e^H e >= 0 by
    construction) or the denominator is not positive and finite.
    """
    traces = _db_traces(xi, alpha, ula, panel, code, harmonics, pilots, mode)
    return _one(_crb(_angle_efim(gain, *traces, noise_power)), "xi information vanished")


def crbs_from_fim(fim: FisherMatrix, limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Diagonal of the FIM inverse, inverted on the diagonally-normalized
    system so mixed angle/gain units do not degrade it; raises instead of
    pseudo-inverting."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.diag(fim.entries))
        crbs = np.diag(_inverse((fim.entries / np.outer(s, s))[None], limit)[0]) / s**2
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
    :meth:`MultiTargetFimBuilder.fim`, the term-table FIM at every R; at
    R = 1 it equals :func:`fim_sb_single` or :func:`fim_db_single` to rounding.
    """
    return MultiTargetFimBuilder(targets[1:], kind, ula, pilots, noise_power, panel, code,
                                 harmonics, mode).fim(targets[0])


def _spatial(nq: np.ndarray, left, right) -> np.ndarray:
    """Gram (.., c, c') of spatial factors that sum terms (u, v) of two bases b, b'
    by the identity above: n[u, u'] q[v, v'] from nq = [b^H b' | b'^T G conj(b)],
    summed into columns by each side's e (c, terms)."""
    (u1, v1, e1), (u2, v2, e2) = left, right
    p = nq[..., u1[:, None], u2] * nq[..., v1[:, None], v2 + nq.shape[-1] // 2]
    return np.moveaxis(np.tensordot(e1, np.tensordot(p, e2, (-1, 1)), (1, -2)), 0, -2)


class MultiTargetFimBuilder:
    """Caches the fixed targets' factors and FIM block across a grid sweep.

    Each target has the columns d (angle), h (Re b) and 1j h (Im b); d and h
    are kron(x, w) of a harmonic factor x (the gain for the single bounce;
    gain * d eta and eta for the double bounce) and a spatial factor w, a sum
    of terms (u, v) = vec(u v^T X) (:func:`.channel.vec_outer`): d = (da, a) +
    (a, da) and h = (a, a) for the single bounce, d = h = (a, a_s) + (a_s, a)
    for the double.  Inner products factor as (x^H y)(w^H v), and w^H v by the
    Gram identity above (:func:`_spatial`), so only length-M vectors are
    formed.  Parameters run [moving | fixed]: the moving (angle, Re b, Im b),
    then the fixed angles and gains.  The scaled fixed block and its gain
    block are inverted once, so a cell forms three rows (:func:`_schur`).

    It serves every R = ``n_targets`` >= 1; the benchmark tracer wraps :meth:`fim`
    by this name.  With no fixed target :meth:`crbs` and :meth:`efims` take the
    closed-form gain Schur complement (:meth:`_closed`), not the term table.
    """

    def __init__(self, fixed_targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                 noise_power: float, panel: PanelLayout | None = None,
                 code: CodingMatrix | None = None,
                 harmonics: HarmonicSet | None = None,
                 mode: WavelengthMode = WavelengthMode.EXACT):
        if kind not in ("sb", "db"):
            raise ValueError("kind must be 'sb' or 'db'")
        self._model = (kind, ula, panel, code, harmonics, mode, pilots, noise_power)
        self._g = pilots.gram()
        # terms (u, v) as rows (u, v, in d, in h) over the basis of _factors
        t = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]] if kind == "sb"
                     else [[0, 1, 1, 1], [1, 0, 1, 1]])
        self._terms = u, v, e = t[:, 0], t[:, 1], t[:, 2:].T
        # parameter p is column j[p] of [d_0, h_0, d_1, h_1, ..] times phase[p], so
        # a FIM row is +-Re or +-Im of Gram entries: _pick = (real-view index, sign)
        r = self.n_targets = len(fixed_targets) + 1
        j = np.concatenate([[0, 1, 1], 2 * np.arange(1, r), np.repeat(2 * np.arange(1, r) + 1, 2)])
        ph = np.outer(np.conj([1, 1, 1j]), [1.0, 1.0, 1j] + [1.0] * (r - 1) + [1.0, 1j] * (r - 1))
        self._pick = 4 * r * j[:3, None] + 2 * j + (ph.real == 0), (ph.real - ph.imag) * 2 / noise_power
        # where each parameter of the public order [angles | gains] sits
        self._order = np.concatenate([[0], 3 + np.arange(r - 1), [1, 2], 2 + r + np.arange(2 * r - 2)])
        angle = "alpha" if kind == "sb" else "xi"
        self._labels = tuple([f"{angle}_{i}" for i in range(r)]
                             + [f"{part}_gain_{i}" for i in range(r) for part in ("re", "im")])
        self._fixed, self._fim_c = None, np.zeros((0, 0))
        if fixed_targets:
            # harmonic columns [d_1, h_1, d_2, ..], [b | b G]^T of the stacked
            # bases b and their terms; C is the fixed targets' own rows against them
            x, b = self._factors(fixed := _stacked(fixed_targets))
            b, o = b.reshape(-1, b.shape[-1]), 2 * np.arange(r - 1)[:, None]
            self._fixed = (np.moveaxis(x, 0, 1).reshape(x.shape[1], -1),
                           np.concatenate([b, b @ self._g]).T,
                           ((o + u).ravel(), (o + v).ravel(), np.kron(np.eye(r - 1, dtype=int), e)))
            b = self._rows(fixed)[1]
            c = np.concatenate([b[:, 0], b[:, 1:].reshape(-1, b.shape[-1])])
            c = 0.5 * (c + c.T)
            self._fim_c, self._s = c, np.sqrt(np.diagonal(c))
            with np.errstate(divide="ignore", invalid="ignore"):
                c = c / np.outer(self._s, self._s)
            self._shared = _shared_block(c, CONDITION_LIMIT)
            self._gains = _shared_block(c[r - 1:, r - 1:], CONDITION_LIMIT)

    def _factors(self, t: TargetState):
        """(harmonic (n, K, 2), basis (n, 2, M)) factors of the columns [d, h]
        of n targets: the basis is [a, da] (sb) or [a, a_s] (db)."""
        kind, ula, panel, code, harmonics, mode = self._model[:6]
        a = _rows(ula, t.alpha)
        if kind == "sb":
            return (np.stack([t.sb_gain, np.ones_like(t.sb_gain)], -1)[:, None],
                    np.stack([a, _rows(ula, t.alpha, derivative=True)], 1))
        eta, deta = _patterns(t.xi, panel, code, harmonics, mode)
        return (np.stack([t.db_gain[:, None] * deta, eta], -1),
                np.stack([a, np.broadcast_to(_rows(ula, 0.0), a.shape)], 1))

    def _rows(self, moving: TargetState, scaled: bool = False):
        """The moving target's FIM rows A (n, 3, 3), B (n, 3, 3R - 3); with
        ``scaled``, (scale (n, 3), A, B) scaled against the fixed block."""
        x, b = self._factors(moving)
        xh, bc, t = np.swapaxes(x, 1, 2).conj(), b.conj(), self._terms
        nq = np.concatenate([b, (b.reshape(-1, b.shape[-1]) @ self._g).reshape(b.shape)], 1)
        g = (xh @ x) * _spatial(bc @ np.swapaxes(nq, 1, 2), t, t)
        if self._fixed is not None:
            x_f, nq_f, t_f = self._fixed
            nq = (bc.reshape(-1, b.shape[-1]) @ nq_f).reshape(len(b), 2, -1)
            g = np.concatenate([g, (xh @ x_f) * _spatial(nq, t, t_f)], axis=-1)
        f = self._pick[1] * g.reshape(len(g), -1).view(float)[:, self._pick[0]]
        a, b = 0.5 * (f[:, :, :3] + np.swapaxes(f[:, :, :3], 1, 2)), f[:, :, 3:]
        if not scaled:
            return a, b
        s = np.sqrt(np.diagonal(a, axis1=1, axis2=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return s, a / (s[:, :, None] * s[:, None, :]), b / (s[:, :, None] * self._s)

    def fim_cells(self, moving: TargetState) -> np.ndarray:
        """(n, 3R, 3R) FIMs [[A, B], [B^T, C]] in the order [angles | gains],
        with the moving target, given as (n,) arrays, as parameter index 0."""
        o = self._order
        return _full(*self._rows(moving), self._fim_c)[:, o[:, None], o]

    def fim(self, moving: TargetState) -> FisherMatrix:
        """FIM with the moving target as parameter index 0 (:meth:`fim_cells`)."""
        return FisherMatrix(entries=self.fim_cells(_stacked([moving]))[0], labels=self._labels)

    def _closed(self, moving: TargetState) -> np.ndarray:
        """Angle EFIMs (n,) with no fixed target (:func:`_angle_efim`)."""
        kind, ula, panel, code, harmonics, mode, pilots, noise_power = self._model
        if kind == "sb":
            traces = _per_angle(lambda a: _sb_traces(a, ula, pilots), moving.alpha)
            return _angle_efim(moving.sb_gain, *traces, noise_power)
        return _angle_efim(moving.db_gain, *_db_traces(moving.xi, moving.alpha, ula, panel, code,
                                                       harmonics, pilots, mode), noise_power)

    def crbs(self, moving: TargetState) -> np.ndarray:
        """CRBs (n,) of the moving angle, 1 / EFIM or T_00 / s_0^2; NaN where masked."""
        if self._fixed is None:
            return _crb(self._closed(moving))
        s, a, b = self._rows(moving, scaled=True)
        ok, t, _, _ = _schur(a, b, self._shared, CONDITION_LIMIT)
        return np.where(ok, t[:, 0, 0] / s[:, 0] ** 2, np.nan)

    def efims(self, moving: TargetState) -> np.ndarray:
        """Angle EFIMs (n, R, R) over [moving | fixed angles], every gain a
        nuisance; NaN where the gain block is masked.  With T_g, P_g the
        Schur factors of the gain block, U = [U_m | U_f] the angle-by-gain
        block and W = U_m - U_f P_g^T: E = F_aa - U_f Q_g U_f^T - W T_g W^T."""
        if self._fixed is None:
            return self._closed(moving)[:, None, None]
        s, a, b = self._rows(moving, scaled=True)
        n, k, c, q_g = len(a), self.n_targets - 1, self._shared[0], self._gains[1]
        ok, t, p, _ = _schur(a[:, 1:, 1:], b[:, 1:, k:], self._gains, CONDITION_LIMIT)
        u_f = np.concatenate([b[:, :1, k:], np.broadcast_to(c[:k, k:], (n, k, 2 * k))], axis=1)
        u_m = np.concatenate([a[:, :1, 1:], np.swapaxes(b[:, 1:, :k], 1, 2)], axis=1)
        w = u_m - u_f @ np.swapaxes(p, 1, 2)
        e = (_full(a[:, :1, :1], b[:, :1, :k], c[:k, :k]) - u_f @ q_g @ np.swapaxes(u_f, 1, 2)
             - w @ t @ np.swapaxes(w, 1, 2))
        s = np.concatenate([s[:, :1], np.broadcast_to(self._s[:k], (n, k))], axis=1)
        return np.where(ok[:, None, None], e * (s[:, :, None] * s[:, None, :]), np.nan)


def _inverse(f: np.ndarray, limit: float) -> np.ndarray:
    """Inverses of stacked (n, k, k) FIMs; NaN where the scaled condition
    number exceeds ``limit`` (never a pseudo-inverse)."""
    ok, (x,) = _certified_inverse([f], limit)
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


def peb_cells(builders, moving: TargetState, q, geom: SceneGeometry,
              limit: float = CONDITION_LIMIT) -> np.ndarray:
    """PEB of the moving target (``moving`` as (n,) arrays) at stacked points
    q (n, 3) from its (sb, db) :class:`MultiTargetFimBuilder` pair, at any R;
    NaN where masked.

    The R x R angle EFIMs (:meth:`MultiTargetFimBuilder.efims`) combine,
    under the independent-path assumption, into a block-diagonal information
    matrix over all 2R angles.  Only the probed target's angle pair
    (marginalizing every other angle) is pushed through its Jacobian, so a
    nuisance target on the BS-panel axis degrades nothing but its own
    position.  The moving target's own position information is rank one on
    that axis.  Masked: a singular gain block on either path, the 2R x 2R
    angle information or the 2 x 2 position information over the limit.
    """
    ok, covs = _certified_inverse([b.efims(moving) for b in builders], limit)
    # the covariance is block diagonal, so the pair's equivalent information
    # is diagonal: one over each of its two variances
    info = np.stack([1.0 / x[:, 0, 0] for x in covs], -1)
    return _position_peb(q, geom, np.where(ok[:, None], info, np.nan), limit)


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
    g, dg = _per_angle(lambda x: _ris_terms(profile, ris_layout, x, 0.0), xi)
    t_b = _per_angle(lambda a: _db_trace(a, ula, pilots), alpha)
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
