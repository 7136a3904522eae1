import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e

from stcmsense.classification import (
    HypothesisSet,
    confusion_matrix,
    confusion_row,
    decision_thresholds,
    fuse,
    likelihood_conditional,
    posterior,
    rayleigh_scale,
)
from stcmsense.errors import NonPositiveDistance
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
        assert p.label_name == "object_like"

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
