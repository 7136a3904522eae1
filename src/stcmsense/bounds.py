"""Fisher information, closed-form angle CRBs, EFIM and position bounds.

Parameter sets follow the split processing of the echo: the single-bounce
(carrier) block informs the BS-side angle alpha, the stacked double-bounce
harmonics inform the panel-side angle xi; each angle drags a complex gain
nuisance (Re, Im).  Parameter ordering for R targets is

    [angle_1 .. angle_R, Re b_1, Im b_1, .., Re b_R, Im b_R].

All information matrices use the complex-Gaussian form

    F_ij = (2 / sigma_n^2) Re{ (d u / d psi_i)^H (d u / d psi_j) },

with a Hermitian inner product between stacked derivative vectors (required
for positive semidefiniteness).  Every single- and multi-target FIM, the
closed forms and the fixed-profile baseline included, is read from the column
Grams of the paths of ``channel.PATHS`` (:func:`_table`) over one basis Gram
(:class:`MultiTargetFimBuilder`), formed with the exact pilot Gram X X^H.

Singularity policy: any matrix whose scaled condition number
(:func:`scale_invariant_cond`, the 2-norm condition number after
normalization to unit diagonal) exceeds ``constants.CONDITION_LIMIT`` is
reported masked, never pseudo-inverted.  With one target, and no fixed
one, the 3 x 3 FIM's condition number is known analytically
(:meth:`MultiTargetFimBuilder._closed`).  Elsewhere the decision reuses the
inverse that is computed anyway (:func:`_certified_inverse`).  With D the
diagonal of a k x k FIM F, kappa_F = ||D^-1/2 F D^-1/2||_F ||D^1/2 F^-1
D^1/2||_F bounds the scaled condition number: kappa_2 <= kappa_F <=
k kappa_2.  So kappa_F <= limit / 2 passes a matrix and kappa_F > 2 k limit
masks it; the factor-2 margins cover the rounding of the computed inverse,
whose relative error grows as k eps kappa (Higham, Accuracy and Stability
of Numerical Algorithms, 2002, ch. 14).  Only the rest take the SVD: the
few matrices near the limit, and any member whose LU meets an exactly zero
pivot.

Every map runs through :class:`MultiTargetFimBuilder` at any target count
R, which at R = 1 takes the gain Schur complement of its column Gram.  With
R > 1 targets the scaled FIM is F = [[A, B], [B^T, C]] over [moving |
fixed].  The fixed block C is the same in every cell, so Q = C^-1 is
certified once (if C fails, every F does: kappa_2(F) >= kappa_2(C) by
Cauchy interlacing).  Per cell, P = B Q and T = (A - P B^T)^-1, the leading
block of F^-1 (Kay, Estimation Theory, 1993, ch. 3), give kappa_F with no
cancellation (:func:`_schur`): ||F||_F^2 = ||A||^2 + 2 ||B||^2 + ||C||^2
and ||F^-1||_F^2 = ||T||^2 + 2 ||T P||^2 + ||Q||^2 + 2 tr(T P Q P^T)
+ tr(T P P^T T P P^T), every term non-negative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .channel import (PATHS, PilotMatrix, TargetState, UlaLayout, _per_angle,
                      steering_derivative, steering_vector)
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
    """(inverses, singular) of stacked (..., k, k) matrices.  Members LU finds
    exactly singular, which ``np.linalg.inv`` refuses, are named by slogdet
    (sign 0) and inverted as the identity; if slogdet misses one, all are."""
    singular = np.zeros(g.shape[:-2], dtype=bool)
    try:
        return np.linalg.inv(g), singular
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(g)[0] == 0
        g = np.where(singular[..., None, None], np.eye(g.shape[-1]), g)
        try:
            return np.linalg.inv(g), singular
        except np.linalg.LinAlgError:
            return np.full(g.shape, np.nan), np.ones_like(singular)


def _certified_inverse(blocks, limit: float):
    """(ok, [x_i]) for stacked FIMs, block diagonal with the (..., k_i, k_i)
    ``blocks``: ok is their ``scale_invariant_cond <= limit`` and x_i[ok] is
    bitwise ``np.linalg.inv(blocks[i][ok])`` (LAPACK inverts each member on
    its own).  kappa_F sums the blocks' squared norms."""
    bad = np.any([_bad(f) for f in blocks], axis=0)
    gs = [np.where(bad[..., None, None], np.eye(f.shape[-1]), f) for f in blocks]
    xs, singular = zip(*map(_inv, gs))
    singular = np.any(singular, axis=0)
    s = [np.sqrt(np.diagonal(g, axis1=-2, axis2=-1)) for g in gs]
    ss = [v[..., :, None] * v[..., None, :] for v in s]
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


_t = functools.partial(np.swapaxes, axis1=-1, axis2=-2)  # transposes of a stack


def _full(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stacked [[A, B], [B^T, C]] from (..., j, j) A, (..., j, m) B and a broadcast C."""
    return np.block([[a, b], [_t(b), np.broadcast_to(c, b.shape[:-2] + c.shape[-2:])]])


def _shared_block(c: np.ndarray, limit: float):
    """(C, Q = C^-1, ||C||_F^2, ||Q||_F^2, ok) of a scaled (..., m, m) block,
    or stack of them, that a stack shares; ok is whether C passes the limit."""
    ok, (q,) = _certified_inverse([c[None]], limit)
    return c, q[0], _fro2(c), _fro2(q[0]), ok[0]


def _schur(a: np.ndarray, b: np.ndarray, shared, limit: float):
    """(ok, T, P, kappa_F) of scaled stacks F = [[A, B], [B^T, C]] with
    (..., j, j) A, (..., j, m) B and C from :func:`_shared_block`: P = B Q and
    T = (A - P B^T)^-1.  ok is ``scale_invariant_cond(F) <= limit``, from the
    block kappa_F of the module docstring; all fail where C does."""
    c, q, c2, q2, c_ok = shared
    bad = ~(np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(b).all(axis=(-2, -1)) & c_ok)
    p = b @ q
    t, singular = _inv(a - p @ _t(b))
    tp = t @ p
    tm = tp @ _t(p)  # T P P^T; tr(T P Q P^T) sums (T P Q) * P
    with np.errstate(over="ignore", invalid="ignore"):
        inv2 = (_fro2(t) + 2.0 * _fro2(tp) + q2 + 2.0 * np.sum((tp @ q) * p, axis=(-2, -1))
                + np.sum(tm * _t(tm), axis=(-2, -1)))
        kappa_f = np.sqrt(_fro2(a) + 2.0 * _fro2(b) + c2) * np.sqrt(inv2)
    kappa_f[singular] = np.nan
    ok = _decide(kappa_f, bad, a.shape[-1] + c.shape[-1], limit, lambda rows: _full(
        a[rows], b[rows], np.broadcast_to(c, a.shape[:-2] + c.shape[-2:])[rows]))
    return ok, t, p, kappa_f


@dataclass(frozen=True)
class FisherMatrix:
    """Real symmetric PSD information matrix."""

    entries: np.ndarray

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
    v = values.item()
    if np.isnan(v):
        raise SingularInformation(reason)
    return v


def _patterns(panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
              mode: WavelengthMode, xi):
    """Harmonic patterns (eta, d eta / d xi) at (n,) angles xi, (n, K) each;
    the BS sits at the panel's angle 0.  Its ``functools.partial`` over a
    panel is the double bounce's pattern source of :class:`MultiTargetFimBuilder`."""
    return tuple(v.T for v in harmonic_pattern_batch(panel, code, harmonics, xi, 0.0, mode))


def _unit(xi):
    """The single bounce's pattern source, the carrier alone: eta = 1, d eta = 0, (n, 1) each."""
    return np.ones((len(xi), 1)), np.zeros((len(xi), 1))


def _table(kind: str) -> list:
    """Rows (u, v, in d, in h) of the terms vec(b_u b_v^T X) of a path of
    ``channel.PATHS`` in its columns d (angle) and h (gain).  h is the path's
    terms; d is their angle derivative: for an alpha path da in place of each
    a in turn (the product rule), for a xi path, whose angle enters through
    its harmonic factor, h again.  Every spatial inner product sums
        vec(u2 v2^T X)^H vec(u1 v1^T X) = (v1^T G conj(v2)) (u2^H u1),
    so per cell only length-M vectors are formed (:class:`MultiTargetFimBuilder`)."""
    _, angle, terms = PATHS[kind]
    h = list(terms.values())
    d = h if angle == "xi" else [t[:i] + (1,) + t[i + 1:] for t in h for i in (0, 1) if t[i] == 0]
    return [[*t, d.count(t), h.count(t)] for t in dict.fromkeys(d + h)]


def _one_target(kind: str, xi, alpha, gain, ula: UlaLayout, pilots: PilotMatrix,
                noise_power: float, patterns=_unit):
    """(one-path builder with no fixed target, the moving target) at angles
    and a gain given as scalars or (n,) arrays; ``gain`` serves either bounce."""
    return (MultiTargetFimBuilder([], [(kind, patterns)], ula, pilots, noise_power),
            TargetState(*np.atleast_1d(alpha, xi, gain, gain)))


def fim_sb_single(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                  noise_power: float) -> FisherMatrix:
    """3x3 single-target single-bounce FIM over (alpha, Re b, Im b)."""
    b, t = _one_target("sb", 0.0, alpha, gain, ula, pilots, noise_power)
    return FisherMatrix(entries=b.fim_cells(t)[0, 0])


def crb_alpha_closed(alpha: float, gain: complex, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float) -> float:
    """Closed-form CRB(alpha) at one angle, the gain Schur complement of
    :func:`fim_sb_single` (:meth:`MultiTargetFimBuilder.crbs`); raises where
    that FIM's scaled condition number exceeds the limit."""
    b, t = _one_target("sb", 0.0, alpha, gain, ula, pilots, noise_power)
    return _one(b.crbs(t), "alpha FIM over the condition limit")


def fim_db_single(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> FisherMatrix:
    """3x3 single-target double-bounce FIM over (xi, Re b, Im b)."""
    b, t = _one_target("db", xi, alpha, gain, ula, pilots, noise_power,
                       functools.partial(_patterns, panel, code, harmonics, mode))
    return FisherMatrix(entries=b.fim_cells(t)[0, 0])


def crb_xi_closed(xi: float, alpha: float, gain: complex, ula: UlaLayout,
                  panel: PanelLayout, code: CodingMatrix, harmonics: HarmonicSet,
                  pilots: PilotMatrix, noise_power: float,
                  mode: WavelengthMode = WavelengthMode.EXACT) -> float:
    """Closed-form CRB(xi) at one angle pair, the gain Schur complement of
    :func:`fim_db_single` (:meth:`MultiTargetFimBuilder.crbs`); raises where
    that FIM's scaled condition number exceeds the limit, as with a single
    harmonic, whose pattern and derivative columns are parallel."""
    b, t = _one_target("db", xi, alpha, gain, ula, pilots, noise_power,
                       functools.partial(_patterns, panel, code, harmonics, mode))
    return _one(b.crbs(t), "xi FIM over the condition limit")


def crbs_from_fim(fim: FisherMatrix) -> np.ndarray:
    """Diagonal of the FIM inverse, inverted on the diagonally-normalized
    system so mixed angle/gain units do not degrade it; raises instead of
    pseudo-inverting."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.diag(fim.entries))
        crbs = np.diag(_inverse((fim.entries / np.outer(s, s))[None], CONDITION_LIMIT)[0]) / s**2
    if np.isnan(crbs).any():
        raise SingularInformation(
            f"scaled condition number {fim.condition_number():.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    return crbs


def _stacked(states) -> TargetState:
    """One TargetState of (n,) arrays from n >= 0 scalar ones."""
    return TargetState(*(np.array([getattr(t, f.name) for t in states])
                         for f in fields(TargetState)))


def fim_multi_target(targets, kind: str, ula: UlaLayout, pilots: PilotMatrix,
                     noise_power: float, panel: PanelLayout | None = None,
                     code: CodingMatrix | None = None,
                     harmonics: HarmonicSet | None = None,
                     mode: WavelengthMode = WavelengthMode.EXACT) -> FisherMatrix:
    """Full numeric FIM for R targets on the path ``kind``, "sb" (alpha) or "db" (xi).

    The first target takes parameter index 0 of
    :meth:`MultiTargetFimBuilder.fim`; at R = 1 it is :func:`fim_sb_single`
    or :func:`fim_db_single`.
    """
    patterns = _unit if kind == "sb" else functools.partial(_patterns, panel, code, harmonics, mode)
    return MultiTargetFimBuilder(targets[1:], [(kind, patterns)], ula, pilots,
                                 noise_power).fim(targets[0])[0]


class MultiTargetFimBuilder:
    """Caches the fixed targets' factors and FIM blocks across a grid sweep.

    ``paths`` holds T pairs (kind, patterns): a path of ``channel.PATHS`` and
    its harmonic source ``patterns(xi) -> (eta, d eta)``, (n, K) each.  A path
    gives each target the columns d (angle), h (Re b) and 1j h (Im b), kron(x,
    w) of a harmonic factor x (:meth:`_harmonic`) and the spatial factor w its
    terms sum into (:func:`_table`).  Inner products factor as (x^H y)(w^H v),
    and every path reads w^H v from one N/Q Gram of the bases
    (:meth:`_basis_gram`) by the identity of :func:`_table`.  Results carry
    the paths on a leading axis, so (sb, db) give the split (alpha, xi)
    bounds.  Parameters run [moving | fixed]: the moving (angle, Re b, Im b),
    then the fixed angles and gains.  Each path's scaled fixed block and its
    gain block are inverted once, so a cell forms three rows (:func:`_schur`).

    It serves every R = ``n_targets`` >= 1; the benchmark tracer wraps :meth:`fim`
    by this name.  With no fixed target the basis Gram depends on the bearing
    alone and is taken once per distinct alpha, and :meth:`crbs` and
    :meth:`efims` read the 2 x 2 column Gram directly (:meth:`_closed`).
    Pattern sources are module-level functions or their ``functools.partial``
    (:func:`_unit`, :func:`_patterns`, ``metasurface._ris_terms``), so the
    builder pickles into worker processes.
    """

    def __init__(self, fixed_targets, paths, ula: UlaLayout, pilots: PilotMatrix,
                 noise_power: float):
        self._ula, self._noise, self._g = ula, noise_power, pilots.gram()
        self.kinds, self._sources = zip(*paths)
        # each path's rows, padded with terms of zero weight to one count (T, I, 4)
        rows = [_table(k) for k in self.kinds]
        t = np.array([x + [[0, 0, 0, 0]] * (max(map(len, rows)) - len(x)) for x in rows])
        self._e = _t(t[..., 2:]).astype(complex)  # (T, 2, I): terms into columns [d, h]
        # where N[u, u'] (Q[v, v']) of term i and target f's term j sit in a basis Gram
        r = self.n_targets = len(fixed_targets) + 1
        o = 6 * np.arange(r)[:, None]
        self._terms = [(x[:, :, None, None, None], (o + s + x[:, None, None])[:, :, None])
                       for x, s in ((t[..., 0], 0), (t[..., 1], 3))]
        # parameter p is column j[p] of [d_0, h_0, d_1, h_1, ..] times phase[p], so
        # a FIM row is +-Re or +-Im of Gram entries: _pick = (real-view index, sign)
        j = np.concatenate([[0, 1, 1], 2 * np.arange(1, r), np.repeat(2 * np.arange(1, r) + 1, 2)])
        ph = np.outer(np.conj([1, 1, 1j]), [1.0, 1.0, 1j] + [1.0] * (r - 1) + [1.0, 1j] * (r - 1))
        self._pick = 4 * r * j[:3, None] + 2 * j + (ph.real == 0), (ph.real - ph.imag) * 2 / noise_power
        # where each parameter of the public order [angles | gains] sits
        self._order = np.concatenate([[0], 3 + np.arange(r - 1), [1, 2], 2 + r + np.arange(2 * r - 2)])
        # the fixed targets' harmonic columns [d_1, h_1, d_2, ..] per path and
        # their bases' [b | b G]^T, target by target; C is their own rows against them
        fixed = _stacked(fixed_targets)
        self._x_f = [np.moveaxis(x, 0, 1).reshape(x.shape[1], -1) for x in self._harmonic(fixed)]
        self._right = self._basis(fixed.alpha).reshape(-1, len(self._g)).T
        self._fim_c = np.zeros((len(rows), 1, 0, 0))
        if fixed_targets:
            b = self._rows(fixed)[1]
            c = np.concatenate([b[:, :, 0], b[:, :, 1:].reshape(len(b), -1, b.shape[-1])], 1)[:, None]
            c = 0.5 * (c + _t(c))
            self._fim_c, self._s = c, np.sqrt(np.diagonal(c, axis1=-2, axis2=-1))
            with np.errstate(divide="ignore", invalid="ignore"):
                c = c / (self._s[..., :, None] * self._s[..., None, :])
            self._shared = _shared_block(c, CONDITION_LIMIT)
            self._gains = _shared_block(c[..., r - 1:, r - 1:], CONDITION_LIMIT)

    def _harmonic(self, t: TargetState) -> list:
        """Per path, [gain * (eta, or d eta on a xi path), eta] (n, K, 2) of n targets' [d, h]."""
        sources = (_per_angle(p, t.xi) for p in self._sources)
        return [np.stack([getattr(t, g)[:, None] * (deta if angle == "xi" else eta), eta], -1)
                for (g, angle, _), (eta, deta) in zip(map(PATHS.get, self.kinds), sources)]

    def _basis(self, alpha) -> np.ndarray:
        """[b | b G] (n, 6, M) of the spatial bases b = [a, da, a_s] at (n,) bearings."""
        a, da = steering_vector(self._ula, alpha).T, steering_derivative(self._ula, alpha).T
        b = np.stack([a, da, np.broadcast_to(steering_vector(self._ula, 0.0), a.shape)], 1)
        return np.concatenate([b, (b.reshape(-1, len(self._g)) @ self._g).reshape(b.shape)], 1)

    def _basis_gram(self, alpha) -> np.ndarray:
        """N/Q Gram (n, 3, 6R) of the bases b at (n,) bearings against each
        target's b' of [own | fixed]: [b^H b' | b'^T G conj(b)] per target."""
        w = self._basis(alpha)
        return np.concatenate([w[:, :3].conj() @ _t(w), w[:, :3].conj() @ self._right], -1)

    def _spatial(self, nq: np.ndarray) -> np.ndarray:
        """Spatial Grams (n, T, 2, 2R) of each path's [d, h] against [d, h, d_1,
        h_1, ..] from a basis Gram nq: terms (u, v) against (u', v') are n[u, u']
        q[v, v'], summed into each path's columns by e."""
        (u, u2), (v, v2), n = *self._terms, np.arange(len(nq))[:, None, None]
        p = nq[n, u, u2]  # (T, I, n, R, I)
        p *= nq[n, v, v2]
        t, i = p.shape[:2]
        s = (self._e @ p.reshape(t, i, -1)).reshape(t, -1, i) @ _t(self._e)
        return s.reshape(t, 2, len(nq), -1, 2).transpose(2, 0, 1, 3, 4).reshape(len(nq), t, 2, -1)

    def _gram(self, moving: TargetState) -> np.ndarray:
        """Column Grams (T, n, 2, 2R) of the moving [d, h] against [d, h, d_1, h_1,
        ..]: harmonic times spatial Gram, from one basis Gram per distinct bearing
        with no fixed target, else one moving basis per cell for every block."""
        h = [np.concatenate([_t(x).conj() @ x, _t(x).conj() @ x_f], -1)
             for x, x_f in zip(self._harmonic(moving), self._x_f)]
        spatial = lambda a: self._spatial(self._basis_gram(a))  # noqa: E731
        s = _per_angle(spatial, moving.alpha) if self.n_targets == 1 else spatial(moving.alpha)
        return np.stack(h) * np.moveaxis(s, 0, 1)

    def _rows(self, moving: TargetState, scaled: bool = False):
        """The moving target's FIM rows A (T, n, 3, 3), B (T, n, 3, 3R - 3); with
        ``scaled``, (scale (T, n, 3), A, B) scaled against the fixed block."""
        g = self._gram(moving)
        f = self._pick[1] * g.reshape(g.shape[:2] + (-1,)).view(float)[..., self._pick[0]]
        a, b = 0.5 * (f[..., :3] + _t(f[..., :3])), f[..., 3:]
        if not scaled:
            return a, b
        s = np.sqrt(np.diagonal(a, axis1=-2, axis2=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (s, a / (s[..., :, None] * s[..., None, :]),
                    b / (s[..., :, None] * self._s[..., None, :]))

    def fim_cells(self, moving: TargetState) -> np.ndarray:
        """(T, n, 3R, 3R) FIMs [[A, B], [B^T, C]] in the order [angles | gains],
        with the moving target, given as (n,) arrays, as parameter index 0."""
        o = self._order
        return _full(*self._rows(moving), self._fim_c)[..., o[:, None], o]

    def fim(self, moving: TargetState) -> list:
        """FIMs per path with the moving target as parameter index 0 (:meth:`fim_cells`)."""
        return [FisherMatrix(entries=f[0]) for f in self.fim_cells(_stacked([moving]))]

    def _closed(self, moving: TargetState):
        """(angle EFIMs, scaled condition numbers), (T, n) each, with no fixed
        target, from the column Gram G (:meth:`_gram`).  The EFIM is the gain
        Schur complement (2 / sigma_n^2)(G_dd - |G_dh|^2 / G_hh) (Kay,
        Estimation Theory, 1993, ch. 3), NaN where the gain block G_hh is not
        positive.  Scaled to unit diagonal the 3 x 3 FIM has the eigenvalues
        1 and 1 +- rho, rho^2 = |G_dh|^2 / (G_dd G_hh), so its kappa_2 is
        (1 + rho) / (1 - rho) exactly; infinite where a diagonal is not
        positive or an entry is not finite."""
        g = self._gram(moving)
        dd, dh, hh = g[..., 0, 0].real, np.abs(g[..., 0, 1]), g[..., 1, 1].real
        live = (dd > 0) & (hh > 0) & np.isfinite(g).all(axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            e = (2.0 / self._noise) * (dd - dh ** 2 / hh)
            rho = dh / np.sqrt(dd * hh)
            kappa = np.where(live & (rho < 1.0), (1.0 + rho) / (1.0 - rho), np.inf)
        return np.where(hh > 0, e, np.nan), kappa

    def crbs(self, moving: TargetState) -> np.ndarray:
        """CRBs (T, n) of the moving angle, 1 / EFIM or T_00 / s_0^2; NaN where
        the full FIM's scaled condition number exceeds the limit."""
        if self.n_targets == 1:
            e, kappa = self._closed(moving)
            with np.errstate(divide="ignore"):
                return np.where(kappa <= CONDITION_LIMIT, 1.0 / e, np.nan)
        s, a, b = self._rows(moving, scaled=True)
        ok, t, _, _ = _schur(a, b, self._shared, CONDITION_LIMIT)
        return np.where(ok, t[..., 0, 0] / s[..., 0] ** 2, np.nan)

    def efims(self, moving: TargetState) -> np.ndarray:
        """Angle EFIMs (T, n, R, R) over [moving | fixed angles], every gain a
        nuisance; NaN where the gain block is masked.  With T_g, P_g the
        Schur factors of the gain block, U = [U_m | U_f] the angle-by-gain
        block and W = U_m - U_f P_g^T: E = F_aa - U_f Q_g U_f^T - W T_g W^T."""
        if self.n_targets == 1:
            return self._closed(moving)[0][..., None, None]
        s, a, b = self._rows(moving, scaled=True)
        lead, k, c, q_g = a.shape[:-2], self.n_targets - 1, self._shared[0], self._gains[1]
        ok, t, p, _ = _schur(a[..., 1:, 1:], b[..., 1:, k:], self._gains, CONDITION_LIMIT)
        u_f = np.concatenate([b[..., :1, k:], np.broadcast_to(c[..., :k, k:], lead + (k, 2 * k))], -2)
        u_m = np.concatenate([a[..., :1, 1:], _t(b[..., 1:, :k])], -2)
        w = u_m - u_f @ _t(p)
        e = (_full(a[..., :1, :1], b[..., :1, :k], c[..., :k, :k]) - u_f @ q_g @ _t(u_f)
             - w @ t @ _t(w))
        s = np.concatenate([s[..., :1], np.broadcast_to(self._s[..., :k], lead + (k,))], -1)
        return np.where(ok[..., None, None], e * (s[..., :, None] * s[..., None, :]), np.nan)


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


def peb_cells(builder, moving: TargetState, q, geom: SceneGeometry) -> np.ndarray:
    """PEB of the moving target (``moving`` as (n,) arrays) at stacked points
    q (n, 3) from a builder over the (sb, db) paths, at any R; NaN where masked.

    The paths' R x R angle EFIMs (:meth:`MultiTargetFimBuilder.efims`)
    combine, under the independent-path assumption, into a block-diagonal
    information matrix over all 2R angles.  Only the probed target's angle
    pair (marginalizing every other angle) is pushed through its Jacobian, so
    a nuisance target on the BS-panel axis degrades nothing but its own
    position.  The moving target's own position information is rank one on
    that axis.  Masked: a singular gain block on either path, the 2R x 2R
    angle information or the 2 x 2 position information over the limit.
    """
    ok, covs = _certified_inverse(list(builder.efims(moving)), CONDITION_LIMIT)
    # the covariance is block diagonal, so the pair's equivalent information
    # is diagonal: one over each of its two variances
    info = np.stack([1.0 / x[:, 0, 0] for x in covs], -1)
    return _position_peb(q, geom, np.where(ok[:, None], info, np.nan), CONDITION_LIMIT)


def crb_ris(xi: float, alpha: float, gain: complex, profile: RisProfile,
            ris_layout: PanelLayout, ula: UlaLayout, pilots: PilotMatrix,
            noise_power: float):
    """(FisherMatrix over (xi, Re b, Im b), CRB(xi)) of the fixed-profile
    linear-panel baseline at one angle pair and gain.

    It is the builder over the one double-bounce path, with no fixed target,
    whose harmonic factor is the one response g(xi) = a_R(xi)^T diag(w) a_R(0)
    (``metasurface._ris_terms``).  The angle enters only through
    gain * g(xi), so the matrix is singular by construction while its gain
    block stays invertible; the CRB is the builder's closed form
    (:meth:`MultiTargetFimBuilder.crbs`) under its one mask rule, +inf where
    masked, never a pseudo-inverse artifact.
    """
    b, t = _one_target("db", xi, alpha, gain, ula, pilots, noise_power,
                       functools.partial(_ris_terms, profile, ris_layout, phi_fixed=0.0))
    crb = b.crbs(t).item()
    return FisherMatrix(entries=b.fim_cells(t)[0, 0]), crb if np.isfinite(crb) else np.inf
