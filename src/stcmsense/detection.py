"""Target detection: despreading, ML gain estimate, thresholds, hit probability.

Detection works on the carrier-only single-bounce component with the target
position hypothesized per grid cell.  A combiner Z is applied to the pilot
block before estimation; since Z also shapes the noise, every statistic uses
the noise-referred (effective) regressor energy

    h2 = ||H||^4 / (H^H (I kron Z Z^H) H),

under which the ML gain estimate is exactly CN(beta, sigma_n^2 / h2) and the
scaled magnitude-squared statistic is exactly noncentral chi-square with two
degrees of freedom.  For an identity combiner h2 reduces to ||H||^2, the
plain white-noise model.

h2 and the marginal p_D are array-valued (:func:`effective_energy_cells`,
:func:`pd_marginal_cells`); the scalar regressor and :func:`pd_marginal` are
the one-element case, and so is one combiner.  :func:`detection_map` takes
h2 once per distinct bearing for all its combiners and p_D in one array
pass, with Rayleigh-scale callables of (n,) distances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, UlaLayout, _per_angle, steering_vector, vec
from .errors import OutOfRange, ZeroRegressor
from .geometry import SceneGeometry, angles_from_position, terminal_mask, triangle_distances

_MARCUM_MASS = 1e-14   # swept Poisson mixture mass: 1 - this
_MARCUM_WINDOW = 1e-16  # per-window term cutoff, relative


class Combiner(enum.Enum):
    ALL_ONES = "all_ones"        # Z = ones(M, M): naive beam-agnostic sum
    MATCHED_DESPREAD = "matched"  # Z = X^H: pilot-matched despreading


@dataclass(frozen=True)
class DespreadRegressor:
    """Combined regressor H = vec(Z A X) plus its noise-referred energy."""

    vector: np.ndarray
    effective_norm_sq: float


def combiner_matrix(combiner: Combiner, pilots: PilotMatrix) -> np.ndarray:
    if combiner is Combiner.ALL_ONES:
        m = pilots.m_antennas
        return np.ones((m, m))
    return pilots.symbols.conj().T


def despread_regressor_at_angle(alpha: float, ula: UlaLayout, pilots: PilotMatrix,
                                combiner: Combiner) -> DespreadRegressor:
    """Single-bounce regressor H = vec(Z a(alpha) a(alpha)^T X) at bearing
    alpha, with its noise-referred energy (:func:`effective_energy_cells`)."""
    a = steering_vector(ula, alpha)
    h = vec(np.outer(combiner_matrix(combiner, pilots) @ a, a @ pilots.symbols))
    return DespreadRegressor(h, float(effective_energy_cells([alpha], ula, pilots, combiner)[0]))


def effective_energy_cells(alpha, ula: UlaLayout, pilots: PilotMatrix, combiner):
    """Noise-referred energy h2 at the (n,) bearings ``alpha``, as (n,), or a
    tuple of (n,) arrays, one per combiner, for a tuple of combiners.

    H = vec(Z a a^T X) has rank one, so ||H||^2 = ||Z a||^2 ||X^T a||^2 and
    H^H (I kron Z Z^H) H = ||Z^H Z a||^2 ||X^T a||^2, giving

        h2 = ||Z a||^4 ||X^T a||^2 / ||Z^H Z a||^2

    from (M x M)(M x n) products, stacked per bearing so that a value does
    not depend on how many bearings share the call; the combiners share a
    and ||X^T a||^2.  A bearing with Z a = 0 carries no energy: h2 = 0 there.
    """
    a = np.ascontiguousarray(steering_vector(ula, np.atleast_1d(alpha)).T)[:, None, :]
    xa_sq = np.sum(np.abs(a @ pilots.symbols) ** 2, axis=(1, 2))
    h2 = []
    for comb in (combiner,) if isinstance(combiner, Combiner) else combiner:
        z = combiner_matrix(comb, pilots)
        za = a @ z.T  # (n, 1, M) rows (Z a)^T
        za_sq = np.sum(np.abs(za) ** 2, axis=(1, 2))
        colored = np.sum(np.abs(za @ z.conj()) ** 2, axis=(1, 2))
        h2.append(np.divide(za_sq**2 * xa_sq, colored, out=np.zeros_like(za_sq), where=colored > 0))
    return h2[0] if isinstance(combiner, Combiner) else tuple(h2)


def ml_beta_estimate(y: np.ndarray, h: np.ndarray) -> complex:
    """ML channel-coefficient estimate H^H y / ||H||^2."""
    h = np.asarray(h, dtype=complex).ravel()
    nsq = np.real(np.vdot(h, h))
    if nsq == 0:
        raise ZeroRegressor("regressor has zero norm")
    return complex(np.vdot(h, np.asarray(y, dtype=complex).ravel()) / nsq)


def threshold_from_pfa(p_fa: float) -> float:
    """gamma_th = -2 ln p_FA: exact inverse of the central chi-square tail."""
    if not 0.0 < p_fa < 1.0:
        raise OutOfRange("p_fa must lie in (0, 1)")
    return -2.0 * math.log(p_fa)


def _pois_pmf(k: int, mu: float) -> float:
    """Poisson pmf e^{-mu} mu^k / k! without large-argument cancellation.

    The naive log-space form loses ~mu * eps of absolute accuracy in the
    exponent; rewriting around the saddle point,

        log pmf = (k - mu) - k log1p((k - mu)/mu) - log(2 pi k)/2 - S(k),

    keeps every term small near the mode (S is the Stirling tail).
    """
    if k < 0:
        return 0.0
    if k < 30:
        # naive log form: significant pmf values here imply mu ~ k, so the
        # exponent stays small and cancellation is harmless
        return math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))
    x = (k - mu) / mu
    t = (k - mu) - k * math.log1p(x)
    k2 = float(k) * k
    stirling = (1.0 / (12.0 * k) - 1.0 / (360.0 * k2 * k)
                + 1.0 / (1260.0 * k2 * k2 * k) - 1.0 / (1680.0 * k2 * k2 * k2 * k))
    return math.exp(t - 0.5 * math.log(2.0 * math.pi * k) - stirling)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function, absolute error below 1e-12.

    Series over the Poisson mixture of the noncentral chi-square:

        Q1(a, b) = sum_k e^{-L} L^k / k! * P(chi2_{2k+2} > b^2),   L = a^2/2,

    where the inner factor P(chi2_{2k+2} > b^2) = e^{-g} sum_{j<=k} g^j / j!
    with g = b^2/2.  Terms come from the cancellation-free Poisson pmf
    (:func:`_pois_pmf`), the sweep covers Poisson mass 1 - 1e-14 around the
    mode (every neglected term is bounded by the neglected mass), the running
    inner factor is re-anchored every 64 steps, and whichever of Q1 and
    1 - Q1 is smaller is the quantity actually accumulated.  Arguments
    separated by 16 or more take the Chernoff shortcuts (both bounds are
    then below 1e-55).  Absolute error stays below 1e-12; cross-checks
    against reference implementations sit near 1e-14 out to a, b ~ 500.
    """
    if a < 0 or b < 0:
        raise OutOfRange("arguments must be nonnegative")
    if b == 0.0:
        return 1.0
    lam = 0.5 * a * a
    g = 0.5 * b * b
    if lam == 0.0:
        return math.exp(-g)
    # far-tail shortcuts from the Chernoff bounds
    # 1 - Q1 <= exp(-(a-b)^2/2)/2 and Q1 <= exp(-(b-a)^2/2); at |a-b| >= 16
    # either bound is below 1e-55, far inside the 1e-12 budget
    if a - b >= 16.0:
        return 1.0
    if b - a >= 16.0:
        return 0.0

    def chi_window(lo: int, hi_open: bool, k: int) -> float:
        # e^{-g} sum of g^j/j! over j = lo..k (hi_open: j = k+1..inf),
        # restricted to the numerically significant window around j ~ g
        total = 0.0
        if hi_open:
            j = max(k + 1, int(g))
            while True:
                t = _pois_pmf(j, g)
                total += t
                if t < _MARCUM_WINDOW * max(total, 1e-300):
                    break
                j += 1
            j = int(g) - 1
            while j >= k + 1:
                t = _pois_pmf(j, g)
                total += t
                if t < _MARCUM_WINDOW * max(total, 1e-300):
                    break
                j -= 1
        else:
            if k < lo:
                return 0.0
            j = min(k, int(g))
            while j >= lo:
                t = _pois_pmf(j, g)
                total += t
                if t < _MARCUM_WINDOW * max(total, 1e-300):
                    break
                j -= 1
            j = min(k, int(g)) + 1
            while j <= k:
                t = _pois_pmf(j, g)
                total += t
                if t < _MARCUM_WINDOW * max(total, 1e-300):
                    break
                j += 1
        return min(total, 1.0)

    # Whichever of Q1 and 1 - Q1 is the smaller sum is accumulated directly,
    # so the returned value only ever carries small absolute rounding.
    complement = a > b
    k0 = int(lam)

    def weight(k: int) -> float:
        # P(chi2_{2k+2} <= b^2) when accumulating the complement, else the tail
        if complement:
            return chi_window(0, True, k)
        return chi_window(0, False, k)

    acc = _pois_pmf(k0, lam) * weight(k0)
    mass = _pois_pmf(k0, lam)
    # downward sweep; the 1e-18 cutoff keeps the geometric remainder of the
    # neglected Poisson mass below budget even for wide distributions.  The
    # running weight is re-anchored by direct summation every 64 steps so
    # recurrence drift stays bounded independent of the sweep length.
    k = k0 - 1
    w_k = weight(k)
    pk = _pois_pmf(k, lam) if k >= 0 else 0.0
    since_anchor = 0
    while k >= 0 and pk > 0.0:
        acc += pk * w_k
        mass += pk
        step = _pois_pmf(k, g)
        w_k = w_k + step if complement else w_k - step
        w_k = min(max(w_k, 0.0), 1.0)
        pk *= (k / lam) if k > 0 else 0.0
        k -= 1
        since_anchor += 1
        if since_anchor >= 64:
            w_k = weight(k)
            since_anchor = 0
        if pk < 1e-18 and mass > 0.5:
            break
    # upward sweep; the cap sits beyond 20 Poisson standard deviations,
    # where the residual mass is mathematically negligible
    k = k0 + 1
    k_cap = k0 + int(20.0 * math.sqrt(lam)) + 200
    w_k = weight(k)
    pk = _pois_pmf(k, lam)
    since_anchor = 0
    while mass < 1.0 - _MARCUM_MASS and k <= k_cap:
        acc += pk * w_k
        mass += pk
        k += 1
        pk *= lam / k
        step = _pois_pmf(k, g)
        w_k = w_k - step if complement else w_k + step
        w_k = min(max(w_k, 0.0), 1.0)
        since_anchor += 1
        if since_anchor >= 64:
            w_k = weight(k)
            since_anchor = 0
        if pk == 0.0:
            break
    if complement:
        # neglected Poisson mass contributes at most 1e-14 to the complement
        return min(max(1.0 - acc, 0.0), 1.0)
    return min(max(acc, 0.0), 1.0)


def pd_marginal(scale_sigma: float, h2: float, noise_power: float, gamma_th: float) -> float:
    """:func:`pd_marginal_cells` at one cell of effective energy ``h2``."""
    return float(pd_marginal_cells(scale_sigma, h2, noise_power, gamma_th))


def pd_marginal_cells(scale_sigma, h2, noise_power: float, gamma_th: float):
    """Rayleigh-marginalized detection probability at stacked cells.

    p_D = exp(-gamma_th sigma_n^2 / (4 h2 s^2 + 2 sigma_n^2)) where ``s`` is
    the Rayleigh scale of the gain magnitude and ``h2`` the effective
    energy, broadcast against each other; s = 0 or h2 = 0 collapses to the
    false alarm probability.
    """
    s = np.asarray(scale_sigma, dtype=float)
    if np.any(s < 0):
        raise OutOfRange("Rayleigh scale must be nonnegative")
    return np.exp(-gamma_th * noise_power / (4.0 * np.asarray(h2) * s**2 + 2.0 * noise_power))


def detection_map(grid_points, geom: SceneGeometry, ula: UlaLayout,
                  pilots: PilotMatrix, noise_power: float, p_fa: float,
                  rayleigh_scales: dict, combiners=(Combiner.ALL_ONES, Combiner.MATCHED_DESPREAD)):
    """Marginal detection probability over the grid per target type/combiner.

    ``rayleigh_scales`` maps type label -> callable taking the (n,) single-
    bounce roundtrip distances and returning the (n,) gain Rayleigh scales
    there.  Returns {(label, combiner): (n_points,) array}, keys
    combiner-major in the order given.  A cell without a bearing (on the BS
    or panel phase center) is masked: it comes back as NaN in every array.

    h2 is taken once per distinct bearing (:func:`.channel._per_angle`) for
    every combiner, from one steering evaluation, and p_D in one array pass
    over the points.
    """
    gamma_th = threshold_from_pfa(p_fa)
    pts = np.asarray(grid_points, dtype=float).reshape(-1, 3)
    out = {(label, comb): np.full(len(pts), np.nan)
           for comb in combiners for label in rayleigh_scales}
    live = ~terminal_mask(pts, geom)
    alpha = angles_from_position(pts[live], geom).alpha
    roundtrip = 2.0 * triangle_distances(pts[live], geom)[0]
    scales = {label: fn(roundtrip) for label, fn in rayleigh_scales.items()}
    h2s = _per_angle(lambda a: effective_energy_cells(a, ula, pilots, combiners), alpha)
    for comb, h2 in zip(combiners, h2s):
        for label, scale in scales.items():
            out[(label, comb)][live] = pd_marginal_cells(scale, h2, noise_power, gamma_th)
    return out
