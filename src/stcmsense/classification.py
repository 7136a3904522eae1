"""Bayesian three-way labeling of a detected cell: empty, human-like, object.

The magnitude of the ML gain estimate is the classification statistic.  Its
per-hypothesis likelihood is a Rayleigh density whose squared scale combines
the fading spread of the hypothesis with the estimator noise,

    Pr(x | H_i) = 2x / (2 s_i^2 + v) * exp(-x^2 / (2 s_i^2 + v)),

with s_i the hypothesis gain scale and v the estimator variance; H_0 uses
s_0 = 0.  With v_i = 2 s_i^2 + v, class j outweighs class i < j exactly
when x^2 > c_ij = ln(pi_i v_j / (pi_j v_i)) v_i v_j / (v_j - v_i), where the
log-densities ln pi_i + ln 2x - ln v_i - x^2 / v_i cross.  The MAP label is
2 where x^2 > max(c_02, c_12), else 1 where x^2 > c_01, else 0 (ties toward
the smaller index; label 1 never wins when c_01 >= c_12).  Monte Carlo
compares each trial's x^2 with these edges, so no density is evaluated and
nothing underflows; the exact rates integrate the truth density between
their square roots.

Monte Carlo truth draws use the physical fading model (complex-Gaussian
small-scale coefficient through the path gain), while the classifier applies
the analysis scale s = G(d) sigma_r sigma_nu sqrt(2/pi); the two differ by
the constant 2/sqrt(pi), and keeping both exactly as defined is what
reproduces the reference plateau/floor rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .channel import _propagation
from .errors import OutOfRange
from .rng import stream_rng

# Trials per pass of confusion_row's SNR rows, so its buffers stay in cache
TRIAL_CHUNK = 32_768


@dataclass(frozen=True)
class HypothesisSet:
    """Priors and sqrt-RCS amplitudes of the three hypotheses."""

    priors: tuple = (1 / 3, 1 / 3, 1 / 3)
    rcs_sqrts: tuple = (0.0, 10.0 ** (1 / 20), 10.0 ** (17 / 20))

    def __post_init__(self):
        p = np.asarray(self.priors, dtype=float)
        s = np.asarray(self.rcs_sqrts, dtype=float)
        if p.shape != (3,) or s.shape != (3,):
            raise ValueError("need exactly three hypotheses")
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("priors must be a probability vector")
        if s[0] != 0.0 or not s[1] < s[2]:
            raise ValueError("need sigma_0 = 0 <= sigma_1 < sigma_2")
        object.__setattr__(self, "priors", tuple(p))
        object.__setattr__(self, "rcs_sqrts", tuple(s))


@dataclass(frozen=True)
class ClassPosterior:
    posteriors: np.ndarray
    map_label: int
    statistic: float
    estimator_std: float


def rayleigh_scale(sigma_i: float, distance, sigma_nu: float = 1.0,
                   wavelength: float = SPEED_OF_LIGHT / 1e10, iota: float = 2.0):
    """Analysis Rayleigh scale of the gain magnitude under hypothesis i.

    s = G(d) sigma_i sigma_nu (pi/2)^(-1/2), with G(d) the propagation
    factor of the path gains (``channel._propagation``), which raises at a
    non-positive distance; zero exactly when sigma_i = 0.  A scalar
    distance gives a float, an (n,) array of distances an (n,) array.
    """
    g = _propagation(distance, wavelength, iota)
    if sigma_i < 0 or sigma_nu < 0:
        raise OutOfRange("scales must be nonnegative")
    s = g * sigma_i * sigma_nu * math.sqrt(2.0 / math.pi)
    return float(s) if s.ndim == 0 else s


def likelihood_conditional(beta_hat_mag, scale_i, estimator_var: float):
    """Rayleigh-type density of |beta_hat| under one hypothesis.

    2x/(2 s^2 + v) exp(-x^2/(2 s^2 + v)); at s = 0 this is the density of
    pure estimation noise.  ``beta_hat_mag`` and ``scale_i`` broadcast
    against each other (arrays give an array, scalars a float).
    """
    x = np.asarray(beta_hat_mag, dtype=float)
    if np.any(x < 0):
        raise OutOfRange("|beta_hat| must be nonnegative")
    if estimator_var <= 0:
        raise OutOfRange("estimator variance must be positive")
    v = 2.0 * np.asarray(scale_i, dtype=float) ** 2 + estimator_var
    out = 2.0 * x / v * np.exp(-x**2 / v)
    return float(out) if out.ndim == 0 else out


def posterior(beta_hat_mag: float, scales, priors, estimator_var: float) -> ClassPosterior:
    """Normalized posterior over the three hypotheses and its MAP label.

    Ties (measure zero) break toward the smaller index.
    """
    like = likelihood_conditional(beta_hat_mag, scales, estimator_var)
    return _normalized(like * np.asarray(priors, dtype=float), int(np.argmax(scales)),
                       beta_hat_mag, estimator_var)


def _normalized(weights: np.ndarray, heaviest: int, statistic: float,
                estimator_var: float) -> ClassPosterior:
    total = weights.sum()
    # far tail of every density (total 0): decide by the heaviest combined scale
    post = weights / total if total != 0.0 else np.eye(3)[heaviest]
    return ClassPosterior(posteriors=post, map_label=int(np.argmax(post)),
                          statistic=float(statistic), estimator_std=math.sqrt(estimator_var))


def _edge(v, priors, i: int, j: int) -> float:
    """Squared MAP edge c_ij of classes i < j (module docstring).  Where a
    prior is 0 or v_i = v_j the edge is infinite: j wins everywhere (-inf)
    when pi_j > pi_i, and nowhere (+inf) otherwise."""
    if priors[i] == 0 or priors[j] == 0 or v[i] == v[j]:
        return -math.inf if priors[j] > priors[i] else math.inf
    return math.log((priors[i] * v[j]) / (priors[j] * v[i])) * v[i] * v[j] / (v[j] - v[i])


def _edges(scales, priors, estimator_var: float) -> tuple[float, float]:
    """Squared region edges (lo, hi) under analysis scales (3,): label 0
    where x^2 <= lo, 2 where x^2 > hi, 1 in between (empty when lo = hi)."""
    if estimator_var <= 0:
        raise OutOfRange("estimator variance must be positive")
    v = 2.0 * np.asarray(scales, dtype=float) ** 2 + estimator_var
    if not v[0] <= v[1] <= v[2]:
        raise OutOfRange("combined variances must be nondecreasing")
    hi = max(_edge(v, priors, 0, 2), _edge(v, priors, 1, 2))
    return min(_edge(v, priors, 0, 1), hi), hi


def decision_thresholds(scales, priors, estimator_var: float) -> np.ndarray:
    """MAP region edges (t_1, t_2) in x: label 0 below t_1, 1 up to t_2, 2
    above.  These are sqrt(max(c, 0)) of the squared edges Monte Carlo uses:
    the crossings t_01 and t_12 when the middle class wins somewhere, t_02
    twice when it never does."""
    return np.sqrt(np.maximum(_edges(scales, priors, estimator_var), 0.0))


def confusion_matrix(gain_scale: float, hypotheses: HypothesisSet, estimator_var: float,
                     n_trials: int = 10_000, seed: int = 0, method: str = "mc") -> np.ndarray:
    """Row-stochastic confusion matrix: rows true class, columns decision.

    ``gain_scale`` is the product G(d) sigma_nu shared by all hypotheses at
    the probed cell.  ``method`` "mc" stacks the three simulated rows of
    :func:`confusion_row`; "exact" integrates the truth density over the
    deterministic decision regions (Rayleigh tail differences at the region
    edges).
    """
    if method == "mc":
        return np.array([confusion_row(gain_scale, hypotheses, estimator_var, j, n_trials, seed)
                         for j in range(3)])
    if method != "exact":
        raise ValueError("method must be 'mc' or 'exact'")
    sig = np.asarray(hypotheses.rcs_sqrts)
    t1, t2 = decision_thresholds(gain_scale * sig * math.sqrt(2.0 / math.pi),
                                 hypotheses.priors, estimator_var)
    # per true class, the |beta_hat| Rayleigh scale^2 from the physical truth scale
    s2 = (gain_scale * sig / math.sqrt(2.0)) ** 2 + estimator_var / 2.0
    cdf = 1.0 - np.exp(-(np.array([0.0, t1, t2, np.inf]) ** 2) / (2.0 * s2[:, None]))
    cdf[:, -1] = 1.0
    return np.diff(cdf, axis=1)


def confusion_row(gain_scale, hypotheses: HypothesisSet, estimator_var: float,
                  true_index: int, n_trials: int = 10_000, seed: int = 0) -> np.ndarray:
    """Simulated decision frequencies for one true class: (3,) at a scalar
    ``gain_scale``, (k, 3) at a (k,) array of them.

    Truth draws combine the complex-Gaussian fading of the physical model
    with the estimator noise, from ``stream_rng(seed, true_index)``;
    decisions compare each trial's |beta_hat|^2 with the squared MAP edges of
    the analysis likelihoods.  The unit fading and the noise are drawn once
    and scaled per gain, so every row reuses the same draws: common random
    numbers, whose errors are correlated across the rows.
    """
    if n_trials < 1:
        raise OutOfRange("n_trials must be >= 1")
    g = np.atleast_1d(np.asarray(gain_scale, dtype=float))
    sig = np.asarray(hypotheses.rcs_sqrts)
    scales = g[:, None] * sig * math.sqrt(2.0 / math.pi)  # analysis scales
    edges = [_edges(s, hypotheses.priors, estimator_var) for s in scales]
    taus = g * sig[true_index] / math.sqrt(2.0)           # physical truth scales
    rng = stream_rng(seed, true_index)
    # nu ~ CN(0, s_nu^2) through the path gain: |fading| ~ Rayleigh(tau);
    # rows: real and imaginary parts of the unit fading, then of the noise
    draws = rng.standard_normal((4, n_trials))
    draws[2:] *= math.sqrt(estimator_var / 2.0)
    buf, counts = np.empty((2, min(n_trials, TRIAL_CHUNK))), np.zeros((len(taus), 3), int)
    # cache-sized chunks of trials, the SNR rows inside: the label counts are
    # integers, so the rows do not depend on the chunk size
    for c in range(0, n_trials, TRIAL_CHUNK):
        u_re, u_im, n_re, n_im = draws[:, c:c + TRIAL_CHUNK]
        x2, im = buf[:, :len(u_re)]
        for k, (tau, e) in enumerate(zip(taus, edges)):
            # (tau u_re + n_re)^2 + (tau u_im + n_im)^2 in the two reused buffers
            np.square(np.add(np.multiply(tau, u_re, out=x2), n_re, out=x2), out=x2)
            x2 += np.square(np.add(np.multiply(tau, u_im, out=im), n_im, out=im), out=im)
            counts[k] += _label_counts(x2, *e)
    rows = counts / n_trials
    return rows if np.ndim(gain_scale) else rows[0]


def _label_counts(x2: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """MAP label counts (3,) of squared statistics x2 between the squared
    region edges (lo, hi) of :func:`_edges`."""
    above_lo, above_hi = np.count_nonzero(x2 > lo), np.count_nonzero(x2 > hi)
    return np.array([len(x2) - above_lo, above_lo - above_hi, above_hi])


def fuse(beta_hat_direct: float, beta_hat_via_panel: float,
         scales_direct, scales_via, priors, var_direct: float, var_via: float) -> ClassPosterior:
    """Posterior from the product of the two bounce paths' likelihoods.

    Assumes independent small-scale fading on the two paths and known data
    association (both estimates belong to the same target); each path brings
    its own Rayleigh scales (different roundtrip distances) and estimator
    variance.
    """
    weights = (np.asarray(priors, dtype=float)
               * likelihood_conditional(beta_hat_direct, scales_direct, var_direct)
               * likelihood_conditional(beta_hat_via_panel, scales_via, var_via))
    heaviest = int(np.argmax(np.asarray(scales_direct) + np.asarray(scales_via)))
    return _normalized(weights, heaviest, beta_hat_direct, var_direct)
