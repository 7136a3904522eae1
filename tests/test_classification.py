import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e

from stcmsense.classification import (
    HypothesisSet,
    _decision_frequencies,
    _edges,
    confusion_matrix,
    confusion_row,
    decision_thresholds,
    fuse,
    likelihood_conditional,
    posterior,
    rayleigh_scale,
)
from stcmsense.errors import NonPositiveDistance, OutOfRange
from stcmsense.rng import stream_rng

UNIFORM = (1 / 3, 1 / 3, 1 / 3)


class TestRayleighScale:
    def test_zero_rcs(self):
        assert rayleigh_scale(0.0, 50.0) == 0.0

    def test_linearity(self):
        assert rayleigh_scale(2.0, 80.0) == pytest.approx(2 * rayleigh_scale(1.0, 80.0), rel=1e-14)

    def test_direct_formula_oracle(self):
        # G(d) sigma sigma_nu sqrt(2/pi) at d = 100 m roundtrip, 3 cm carrier
        lam = 299792458.0 / 1e10
        sigma = 10 ** (17 / 20)
        expect = lam / (4 * np.pi * 100.0**2) * sigma * 1.0 * np.sqrt(2 / np.pi)
        assert rayleigh_scale(sigma, 100.0) == pytest.approx(expect, rel=1e-14)

    def test_nonpositive_distance(self):
        with pytest.raises(NonPositiveDistance):
            rayleigh_scale(1.0, 0.0)
        with pytest.raises(NonPositiveDistance):
            rayleigh_scale(1.0, np.array([40.0, -1.0]))

    def test_array_distances_are_scalar_calls(self):
        d = np.array([3.0, 41.5, 200.0])
        got = rayleigh_scale(10 ** (17 / 20), d, iota=2.2)
        assert got.shape == (3,)
        assert np.allclose(got, [rayleigh_scale(10 ** (17 / 20), x, iota=2.2) for x in d],
                           rtol=1e-15, atol=0)
        assert isinstance(rayleigh_scale(1.0, 50.0), float)


class TestLikelihood:
    def test_zero_scale_is_estimator_noise_rayleigh(self):
        v = 2e-3
        for x in (0.0, 0.01, 0.05):
            expect = 2 * x / v * np.exp(-x * x / v)
            assert likelihood_conditional(x, 0.0, v) == pytest.approx(expect, rel=1e-14)

    def test_normalization_by_quadrature(self):
        for s, v in ((0.0, 1e-4), (0.03, 2e-4), (0.5, 1e-3)):
            val, err = quad(lambda x: likelihood_conditional(x, s, v), 0, np.inf)
            assert abs(val - 1.0) < 1e-8

    def test_equals_rice_rayleigh_marginalization(self):
        # oracle: adaptive quadrature of the scaled-Bessel mixture density
        # f(x) = int Rice(x; b, v) Rayleigh(b; s) db over the peaked region
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(0.01, 0.5)
            v = rng.uniform(1e-4, 5e-2)
            x = rng.uniform(0.0, 1.2)

            def rice_times_rayleigh(b):
                rice = 2 * x / v * i0e(2 * x * b / v) * np.exp(-((x - b) ** 2) / v)
                ray = b / s**2 * np.exp(-b * b / (2 * s * s))
                return rice * ray

            hi = x + 12 * (s + np.sqrt(v))
            peaks = [max(x - 5 * np.sqrt(v), 0.0), x, min(x + 5 * np.sqrt(v), hi)]
            ref, err = quad(rice_times_rayleigh, 0, hi, limit=400, points=peaks)
            got = likelihood_conditional(x, s, v)
            assert abs(got - ref) < max(1e-6, 5 * err)


class TestPosterior:
    def test_normalized_and_map(self):
        p = posterior(0.02, [0.0, 0.01, 0.06], UNIFORM, 1e-4)
        assert p.posteriors.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.map_label == int(np.argmax(p.posteriors))

    def test_equal_scales_equal_posteriors(self):
        p = posterior(0.05, [0.0, 0.02, 0.02 + 1e-18], UNIFORM, 1e-4)
        assert p.posteriors[1] == pytest.approx(p.posteriors[2], rel=1e-9)

    def test_small_statistic_prefers_absent(self):
        p = posterior(1e-6, [0.0, 0.02, 0.1], UNIFORM, 1e-6)
        assert p.map_label == 0

    def test_large_statistic_prefers_heaviest_tail(self):
        p = posterior(1.0, [0.0, 0.02, 0.1], UNIFORM, 1e-6)
        assert p.map_label == 2

    def test_decision_regions_are_intervals(self):
        scales = np.array([0.0, 0.02, 0.1])
        v = 1e-4
        t01, t12 = decision_thresholds(scales, UNIFORM, v)
        assert 0 < t01 < t12
        # brute-force argmax on a fine grid agrees with the thresholds
        xs = np.linspace(1e-6, 0.6, 4001)
        labels = np.array([posterior(x, scales, UNIFORM, v).map_label for x in xs])
        switch = xs[np.where(np.diff(labels) != 0)[0]]
        assert len(switch) == 2
        assert abs(switch[0] - t01) < 2e-4
        assert abs(switch[1] - t12) < 2e-4


class TestConfusion:
    def test_rows_sum_to_one(self):
        conf = confusion_matrix(1e-6, HypothesisSet(), 1e-14, n_trials=2000, seed=1)
        assert np.allclose(conf.sum(axis=1), 1.0, atol=1e-12)

    def test_exact_matches_monte_carlo(self):
        hyp = HypothesisSet()
        gain_scale, est_var = 2e-6, 1e-13
        exact = confusion_matrix(gain_scale, hyp, est_var, method="exact")
        n = 40_000
        mc = confusion_matrix(gain_scale, hyp, est_var, n_trials=n, seed=5, method="mc")
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n)
        assert np.all(np.abs(mc - exact) < 4 * se + 1e-9)

    def test_standard_error_shrinks_with_trials(self):
        hyp = HypothesisSet()
        gain_scale, est_var = 2e-6, 1e-13
        reps = 24
        small = [
            confusion_matrix(gain_scale, hyp, est_var, n_trials=500, seed=100 + k)[1, 1]
            for k in range(reps)
        ]
        large = [
            confusion_matrix(gain_scale, hyp, est_var, n_trials=5000, seed=200 + k)[1, 1]
            for k in range(reps)
        ]
        ratio = np.std(small) / np.std(large)
        assert 1.8 < ratio < 6.0  # sqrt(10) ~ 3.16 up to replication noise

    @pytest.mark.parametrize("seed", [9, 20240101])
    def test_row_is_matrix_row_bit_for_bit(self, seed):
        hyp = HypothesisSet()
        conf = confusion_matrix(2e-6, hyp, 1e-13, n_trials=3000, seed=seed)
        for j in range(3):
            row = confusion_row(2e-6, hyp, 1e-13, j, n_trials=3000, seed=seed)
            assert np.array_equal(row, conf[j])

    @pytest.mark.parametrize("seed", [9, 20240101])
    def test_array_gain_is_stacked_scalar_rows(self, seed):
        # one draw per class serves every gain; each row is the scalar call
        hyp = HypothesisSet()
        gains = np.array([1e-7, 2e-6, 3.3e-6, 1e-4, 1e-2])
        for j in range(3):
            rows = confusion_row(gains, hyp, 1e-13, j, n_trials=3000, seed=seed)
            want = np.array([confusion_row(float(g), hyp, 1e-13, j, n_trials=3000, seed=seed)
                             for g in gains])
            assert rows.shape == (len(gains), 3)
            assert np.array_equal(rows, want)
        assert confusion_row(2e-6, hyp, 1e-13, 1, n_trials=10, seed=seed).shape == (3,)

    def test_row_matches_explicit_argmax(self):
        # the MAP rule written out with argmax over the stacked weighted
        # densities, from the same truth draws
        hyp = HypothesisSet()
        for gain_scale, est_var, j in ((2e-6, 1e-13, 1), (1e-2, 1e-14, 2), (1e-7, 1e-10, 0)):
            sig = np.asarray(hyp.rcs_sqrts)
            v = 2.0 * (gain_scale * sig * np.sqrt(2 / np.pi)) ** 2 + est_var
            rng = stream_rng(4, j)
            n = 5000
            fading = gain_scale * sig[j] / np.sqrt(2) * (rng.standard_normal(n)
                                                        + 1j * rng.standard_normal(n))
            noise = np.sqrt(est_var / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            x = np.abs(fading + noise)[:, None]
            weighted = np.asarray(hyp.priors) * (2 * x / v) * np.exp(-(x**2) / v)
            labels = np.argmax(weighted, axis=1)
            labels[weighted.sum(axis=1) == 0] = 2
            want = np.bincount(labels, minlength=3) / n
            assert np.array_equal(confusion_row(gain_scale, hyp, est_var, j, n, seed=4), want)

    def test_reproducible_from_seed(self):
        a = confusion_matrix(1e-6, HypothesisSet(), 1e-14, n_trials=1000, seed=9)
        b = confusion_matrix(1e-6, HypothesisSet(), 1e-14, n_trials=1000, seed=9)
        assert np.array_equal(a, b)


# log of the ratio of consecutive combined variances v_{i+1} / v_i
LOG_STEP = st.floats(math.log(1.01), math.log(1e6))


class TestEdgeRule:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(est_var=st.floats(1e-12, 1e2), steps=st.tuples(LOG_STEP, LOG_STEP),
           weights=st.tuples(*[st.floats(1e-3, 1.0)] * 3), zero=st.sampled_from([None, 0, 1, 2]),
           seed=st.integers(0, 2**32 - 1))
    # the middle class never wins (c_01 > c_12), with and without a zero prior
    @example(est_var=1.0, steps=(math.log(2), math.log(2)), weights=(0.45, 0.1, 0.45), zero=None,
             seed=0)
    @example(est_var=1e-4, steps=(math.log(3), math.log(50)), weights=(0.3, 0.3, 0.4), zero=1,
             seed=1)
    @example(est_var=1e-4, steps=(math.log(3), math.log(50)), weights=(0.3, 0.3, 0.4), zero=0,
             seed=2)
    def test_labels_are_the_argmax_of_the_weighted_densities(self, est_var, steps, weights,
                                                             zero, seed):
        scales = np.sqrt(est_var * np.expm1(np.cumsum([0.0, *steps])) / 2)
        priors = np.array(weights)
        if zero is not None:
            priors[zero] = 0.0
        priors /= priors.sum()
        v = 2 * scales**2 + est_var
        # x^2 from 1e-6 v_0 to 600 v_0: no weighted density underflows
        x2 = v[0] * np.exp(np.random.default_rng(seed).uniform(math.log(1e-6), math.log(600), 400))
        crossings = [math.log(priors[i] * v[j] / (priors[j] * v[i])) * v[i] * v[j] / (v[j] - v[i])
                     for i, j in ((0, 1), (0, 2), (1, 2)) if priors[i] > 0 and priors[j] > 0]
        for c in crossings:  # away from every edge, within a relative 1e-9
            x2 = x2[np.abs(x2 - c) > 1e-9 * x2]
        want = np.argmax(priors * likelihood_conditional(np.sqrt(x2)[:, None], scales, est_var),
                         axis=1)
        lo, hi = _edges(scales, priors, est_var)
        got = [int(np.argmax(_decision_frequencies(np.array([x]), lo, hi))) for x in x2]
        assert got == want.tolist()

    def test_middle_class_that_never_wins(self):
        # c_01 = 2 ln 9 > c_02 = (4/3) ln(4) > c_12 = 4 ln(4/9): one edge at c_02
        priors, v = (0.45, 0.1, 0.45), 1.0
        scales = np.sqrt([0.0, 0.5, 1.5])
        lo, hi = _edges(scales, priors, v)
        assert lo == hi == pytest.approx(4 / 3 * math.log(4), rel=1e-14)
        assert np.array_equal(decision_thresholds(scales, priors, v), [math.sqrt(lo)] * 2)
        freq = _decision_frequencies(np.linspace(0.0, 10.0, 1001), lo, hi)
        assert freq[1] == 0.0 and freq[0] > 0 and freq[2] > 0

    @pytest.mark.parametrize("priors", [UNIFORM, (0.2, 0.5, 0.3)])
    def test_equal_combined_variances(self, priors):
        # sigma_1 = 0 gives v_0 = v_1: the larger prior wins there everywhere,
        # a tie goes to class 0
        scales, v = np.array([0.0, 0.0, 0.1]), 1e-4
        lo, hi = _edges(scales, priors, v)
        x2 = np.linspace(1e-8, 0.05, 2001)
        x2 = x2[np.abs(x2 - hi) > 1e-9 * x2]
        want = np.argmax(np.asarray(priors) * likelihood_conditional(np.sqrt(x2)[:, None], scales,
                                                                    v), axis=1)
        got = [int(np.argmax(_decision_frequencies(np.array([x]), lo, hi))) for x in x2]
        assert got == want.tolist()
        assert set(got) == ({0, 2} if priors == UNIFORM else {1, 2})

    def test_zero_prior_class_is_never_chosen(self):
        hyp = HypothesisSet(priors=(0.5, 0.0, 0.5))
        exact = confusion_matrix(2e-6, hyp, 1e-13, method="exact")
        mc = confusion_matrix(2e-6, hyp, 1e-13, n_trials=20_000, seed=3)
        assert np.all(exact[:, 1] == 0.0) and np.all(mc[:, 1] == 0.0)
        assert np.allclose(exact.sum(axis=1), 1.0, atol=1e-12)
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / 20_000)
        assert np.all(np.abs(mc - exact) < 4 * se + 1e-9)

    def test_far_tail_needs_no_special_case(self):
        # every density underflows here; the edges still decide
        lo, hi = _edges([0.0, 0.02, 0.1], UNIFORM, 1e-6)
        assert all(likelihood_conditional(30.0, s, 1e-6) == 0.0 for s in (0.0, 0.02, 0.1))
        assert _decision_frequencies(np.array([900.0, 1e300, np.inf]), lo, hi).tolist() == [0, 0, 1]

    @pytest.mark.parametrize("est_var", [0.0, -1e-13])
    def test_nonpositive_estimator_variance(self, est_var):
        with pytest.raises(OutOfRange):
            confusion_row(2e-6, HypothesisSet(), est_var, 1, n_trials=10)
        with pytest.raises(OutOfRange):
            decision_thresholds([0.0, 0.02, 0.1], UNIFORM, est_var)


class TestFuse:
    def test_uninformative_path_is_neutral(self):
        scales_n = [0.0, 0.02, 0.1]
        v_n, v_r = 1e-4, 1e-4
        x = 0.05
        single = posterior(x, scales_n, UNIFORM, v_n)
        # a path whose likelihoods coincide across hypotheses: identical
        # scales make the second factor constant
        fused = fuse(x, 0.03, scales_n, [0.02, 0.02, 0.02], UNIFORM, v_n, v_r)
        assert np.allclose(fused.posteriors, single.posteriors, rtol=1e-12)

    def test_identical_paths_square_likelihoods(self):
        scales = [0.0, 0.02, 0.1]
        v = 1e-4
        x = 0.04
        fused = fuse(x, x, scales, scales, UNIFORM, v, v)
        like = np.array([likelihood_conditional(x, s, v) for s in scales])
        expect = like**2 / np.sum(like**2)
        assert np.allclose(fused.posteriors, expect, rtol=1e-12)

    def test_agreeing_paths_raise_confidence(self):
        rng = np.random.default_rng(8)
        scales_n = np.array([0.0, 0.02, 0.1])
        scales_r = scales_n / 3
        v_n, v_r = 1e-4, 1e-5
        checked = 0
        for _ in range(400):
            x_n = rng.uniform(0, 0.4)
            x_r = rng.uniform(0, 0.15)
            p_n = posterior(x_n, scales_n, UNIFORM, v_n)
            p_r = posterior(x_r, scales_r, UNIFORM, v_r)
            if p_n.map_label != p_r.map_label:
                continue
            fused = fuse(x_n, x_r, scales_n, scales_r, UNIFORM, v_n, v_r)
            assert fused.posteriors[p_n.map_label] >= min(
                p_n.posteriors[p_n.map_label], p_r.posteriors[p_r.map_label]
            ) - 1e-12
            checked += 1
        assert checked > 100


def test_hypothesis_set_validation():
    with pytest.raises(ValueError):
        HypothesisSet(priors=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        HypothesisSet(rcs_sqrts=(0.0, 3.0, 1.0))
    with pytest.raises(ValueError):
        HypothesisSet(rcs_sqrts=(0.5, 1.0, 2.0))


def test_class_scales_table_defaults(geom):
    s = [rayleigh_scale(sigma, 100.0) for sigma in HypothesisSet().rcs_sqrts]
    assert s[0] == 0.0
    assert s[2] / s[1] == pytest.approx(10 ** 0.8, rel=1e-12)
