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

h2, the marginal p_D and the Marcum Q are array-valued
(:func:`effective_energy_cells`, :func:`pd_marginal_cells`,
:func:`marcum_q1`); a scalar call is the one-element case, and so is one
combiner.  p_D given the gain is Q1(a, b), a^2 the noncentrality and b^2
the threshold.  Q1(a, b) = P(J <= K) for independent J ~ Pois(b^2/2) and
K ~ Pois(a^2/2): the Poisson mixture of the noncentral chi-square with two
degrees of freedom is sum_k P(K = k) P(chi2_{2k+2} > b^2), and
P(chi2_{2k+2} > b^2) = P(J <= k).  :func:`detection_map` takes h2 once per
distinct bearing for all its combiners and p_D in one array pass, with
Rayleigh-scale callables of (n,) distances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import PilotMatrix, UlaLayout, _per_angle, steering_vector, vec
from .errors import OutOfRange, ZeroRegressor
from .geometry import SceneGeometry, angles_from_position, terminal_mask, triangle_distances


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


# Window entries per pass of _marcum_pair: bounds memory, not values
_MARCUM_CHUNK = 4096
_LOG_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(30)])


def _log_pois_pmf(n: np.ndarray, mu: float) -> np.ndarray:
    """log Poisson pmf at ascending integers n >= 0 (floats), mu > 0.  From
    n = 30 on it is taken around the saddle point, (n - mu) - n log1p((n -
    mu)/mu) - log(2 pi n)/2 - S(n) with S the Stirling tail, which keeps the
    ~mu eps cancellation of the naive form out of the exponent."""
    k = n[n >= 30]
    small = n[:len(n) - len(k)]
    k2 = k * k
    stirling = (1.0 / (12.0 * k) - 1.0 / (360.0 * k2 * k)
                + 1.0 / (1260.0 * k2 * k2 * k) - 1.0 / (1680.0 * k2 * k2 * k2 * k))
    return np.concatenate([
        -mu + small * math.log(mu) - _LOG_FACTORIAL[small.astype(int)],
        (k - mu) - k * np.log1p((k - mu) / mu) - 0.5 * np.log(2.0 * np.pi * k) - stirling])


def _marcum_pair(lam: float, g: float) -> float:
    """P(J <= K) at lam, g > 0 over n in [min - h, max + h] of (lam, g), h =
    12 sqrt(max) + 40, past which both laws carry negligible mass.  The
    smaller side is summed: sum P(K = n) P(J <= n) for lam <= g, else
    1 - sum P(J = n) P(K <= n - 1), the inner cdf one running sum."""
    h = 12.0 * math.sqrt(max(lam, g)) + 40.0
    lo, hi = max(0.0, math.floor(min(lam, g) - h)), math.ceil(max(lam, g) + h) + 1.0
    complement = lam > g
    outer, inner = (g, lam) if complement else (lam, g)
    acc = cdf = 0.0
    with np.errstate(over="ignore"):
        while lo < hi:
            n = np.arange(lo, min(lo + _MARCUM_CHUNK, hi))
            p = np.exp(_log_pois_pmf(n, inner))
            c = cdf + np.cumsum(p)
            cdf, lo = c[-1], lo + _MARCUM_CHUNK
            acc += np.dot(np.exp(_log_pois_pmf(n, outer)), c - p if complement else c)
    return min(max(1.0 - acc if complement else acc, 0.0), 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q function, broadcast over a and b (a scalar pair
    gives a ``float``), with absolute error below 1e-12 as checked against
    references up to a, b = 1e5; larger windows are not checked.  It is
    P(J <= K) of the module
    docstring per pair (:func:`_marcum_pair`).  Shortcuts are keyed on the
    squares: b^2 = 0 gives 1, a^2 = 0 gives exp(-b^2/2), and |a - b| >= 16
    gives 1 or 0 (the Chernoff bounds 1 - Q1 <= exp(-(a-b)^2/2)/2 and
    Q1 <= exp(-(b-a)^2/2) are then below 1e-55).  Negative or non-finite
    arguments raise, and so do squares past 2^52 that take no shortcut,
    where the window's integers are no longer exact.  Memory is bounded;
    time grows with the window, about 17 max(a, b) integers."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a >= 0) & (b >= 0)):
        raise OutOfRange("arguments must be finite and nonnegative")
    with np.errstate(over="ignore"):
        lam, g = 0.5 * a * a, 0.5 * b * b
    q = np.where(g == 0, 1.0, np.where(lam == 0, np.exp(-g), np.where(a > b, 1.0, 0.0)))
    live = (g > 0) & (lam > 0) & (np.abs(a - b) < 16.0)
    if np.any(np.maximum(lam, g)[live] > 2.0**52):
        raise OutOfRange("a^2/2 and b^2/2 must stay below 2^52 where |a - b| < 16")
    q[live] = [_marcum_pair(x, y) for x, y in zip(lam[live].tolist(), g[live].tolist())]
    return float(q) if q.ndim == 0 else q


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
