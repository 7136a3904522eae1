"""Bayesian three-way labeling of a detected cell: empty, human-like, object.

The magnitude of the ML gain estimate is the classification statistic.  Its
per-hypothesis likelihood is a Rayleigh density whose squared scale combines
the fading spread of the hypothesis with the estimator noise,

    Pr(x | H_i) = 2x / (2 s_i^2 + v) * exp(-x^2 / (2 s_i^2 + v)),

with s_i the hypothesis gain scale and v the estimator variance; H_0 uses
s_0 = 0.  MAP decision regions in x are the intervals cut by the pairwise
density crossings.

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
from .errors import NonPositiveDistance, OutOfRange
from .rng import stream_rng

_LABELS = ("absent", "human_like", "object_like")


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

    @property
    def label_name(self) -> str:
        return _LABELS[self.map_label]


def rayleigh_scale(sigma_i: float, distance, sigma_nu: float = 1.0,
                   esymbol: float = 1.0, wavelength: float = SPEED_OF_LIGHT / 1e10,
                   iota: float = 2.0):
    """Analysis Rayleigh scale of the gain magnitude under hypothesis i.

    s = G(d) sigma_i sigma_nu (pi/2)^(-1/2) with the same propagation factor
    G as the path gains; zero exactly when sigma_i = 0.  A scalar distance
    gives a float, an (n,) array of distances an (n,) array.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("distance must be positive")
    if sigma_i < 0 or sigma_nu < 0:
        raise OutOfRange("scales must be nonnegative")
    g = math.sqrt(esymbol) * wavelength / (4 * math.pi * d**iota)
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


def decision_thresholds(scales, priors, estimator_var: float) -> np.ndarray:
    """Crossings (t_01, t_12) of the weighted densities, MAP region edges.

    With combined variances v_i = 2 s_i^2 + v strictly increasing, region i
    is the interval between consecutive crossings
    t_ij^2 = ln(pi_i v_j / (pi_j v_i)) v_i v_j / (v_j - v_i).
    """
    scales = np.asarray(scales, dtype=float)
    priors = np.asarray(priors, dtype=float)
    v = 2.0 * scales**2 + estimator_var
    if not (v[0] < v[1] < v[2]):
        raise OutOfRange("combined variances must be strictly increasing")
    out = []
    for i, j in ((0, 1), (1, 2)):
        num = math.log((priors[i] * v[j]) / (priors[j] * v[i])) if priors[i] > 0 and priors[j] > 0 else -math.inf
        t2 = num * v[i] * v[j] / (v[j] - v[i])
        out.append(math.sqrt(max(t2, 0.0)))
    return np.array(out)


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
    t01, t12 = decision_thresholds(gain_scale * sig * math.sqrt(2.0 / math.pi),
                                   hypotheses.priors, estimator_var)
    if t01 > t12:
        raise OutOfRange("decision regions are not intervals under these priors")
    # per true class, the |beta_hat| Rayleigh scale^2 from the physical truth scale
    s2 = (gain_scale * sig / math.sqrt(2.0)) ** 2 + estimator_var / 2.0
    cdf = 1.0 - np.exp(-(np.array([0.0, t01, t12, np.inf]) ** 2) / (2.0 * s2[:, None]))
    cdf[:, -1] = 1.0
    return np.diff(cdf, axis=1)


def confusion_row(gain_scale, hypotheses: HypothesisSet, estimator_var: float,
                  true_index: int, n_trials: int = 10_000, seed: int = 0) -> np.ndarray:
    """Simulated decision frequencies for one true class: (3,) at a scalar
    ``gain_scale``, (k, 3) at a (k,) array of them.

    Truth draws combine the complex-Gaussian fading of the physical model
    with the estimator noise, from ``stream_rng(seed, true_index)``;
    decisions apply the analysis likelihoods.  The unit fading and the noise
    are drawn once and scaled per gain, so every row reuses the same draws:
    common random numbers, whose errors are correlated across the rows.
    """
    if n_trials < 1:
        raise OutOfRange("n_trials must be >= 1")
    g = np.atleast_1d(np.asarray(gain_scale, dtype=float))
    sig = np.asarray(hypotheses.rcs_sqrts)
    scales = g[:, None] * sig * math.sqrt(2.0 / math.pi)  # analysis scales
    taus = g * sig[true_index] / math.sqrt(2.0)           # physical truth scales
    rng = stream_rng(seed, true_index)
    # nu ~ CN(0, s_nu^2) through the path gain: |fading| ~ Rayleigh(tau)
    unit = rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials)
    noise = math.sqrt(estimator_var / 2.0) * (rng.standard_normal(n_trials)
                                              + 1j * rng.standard_normal(n_trials))
    rows = np.array([_decision_frequencies(np.abs(tau * unit + noise), s, hypotheses.priors,
                                           estimator_var)
                     for tau, s in zip(taus, scales)])
    return rows if np.ndim(gain_scale) else rows[0]


def _decision_frequencies(x: np.ndarray, scales, priors, estimator_var: float) -> np.ndarray:
    """MAP label frequencies (3,) of the statistics x under analysis scales
    (3,); a helper, so each row's temporaries die before the next row."""
    w0, w1, w2 = (prior * likelihood_conditional(x, s, estimator_var)
                  for prior, s in zip(priors, scales))
    # MAP label, ties toward the smaller index
    decisions = np.where(w2 > np.maximum(w0, w1), 2, (w1 > w0).astype(np.intp))
    decisions[w0 + w1 + w2 == 0.0] = int(np.argmax(scales))  # far tail: heaviest scale wins
    return np.bincount(decisions, minlength=3) / len(x)


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
