import csv
import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import random_correlation

from stcmsense import bounds, experiments
from stcmsense.bounds import (
    FisherMatrix,
    MultiTargetFimBuilder,
    TargetState,
    crb_alpha_closed,
    crb_ris,
    crb_xi_closed,
    crbs_from_fim,
    fim_db_single,
    fim_generic,
    fim_multi_target,
    fim_sb_single,
    peb_cells,
)
from stcmsense.channel import path_gain, steering_derivative, steering_vector, vec
from stcmsense.config import build_model, grid_points, merge_config
from stcmsense.constants import CONDITION_LIMIT
from stcmsense.errors import DimensionMismatch, SingularInformation
from stcmsense.experiments import run_crb_map, run_peb_map, run_ris_compare
from stcmsense.geometry import angles_from_position, terminal_mask, triangle_distances
from stcmsense.metasurface import HarmonicSet, RisProfile, WavelengthMode, harmonic_pattern_batch

from echo_oracle import db_regressor, sb_regressor

NOISE = 1e-15
EPS = float(np.finfo(float).eps)


def gains(q, geom):
    """(sb, db) gains of a unit-amplitude point: roundtrips 2 d_r and d_S + d_r + d_r'."""
    d_r, d_s, d_rp = triangle_distances(q, geom)
    return path_gain(2 * d_r), path_gain(d_s + d_r + d_rp)


def random_gain(rng, mag=1e-6):
    return mag * (rng.standard_normal() + 1j * rng.standard_normal())


def sb_derivative_columns(alpha, gain, ula, pilots):
    """Stacked derivative vectors of the single-bounce signal."""
    a = steering_vector(ula, alpha)
    da = steering_derivative(ula, alpha)
    damat = np.outer(da, a) + np.outer(a, da)
    h = sb_regressor(alpha, ula, pilots)
    dh = vec(damat @ pilots.symbols)
    return [gain * dh, h, 1j * h]


def db_derivative_columns(xi, alpha, gain, ula, panel, code, harmonics, pilots):
    eta, deta = harmonic_pattern_batch(panel, code, harmonics, xi, 0.0)
    h = db_regressor(alpha, eta[:, 0], ula, pilots)
    dh = db_regressor(alpha, deta[:, 0], ula, pilots)
    return [gain * dh, h, 1j * h]


class TestFimGeneric:
    def test_orthogonal_columns_give_diagonal(self):
        cols = [np.array([1.0, 0, 0, 0]), np.array([0, 1j, 0, 0]), np.array([0, 0, 2.0, 0])]
        f = fim_generic(cols, 0.5)
        assert np.allclose(f.entries, np.diag(np.diag(f.entries)))

    def test_noise_power_scaling(self):
        rng = np.random.default_rng(0)
        cols = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
        f1 = fim_generic(cols, 1.0)
        f2 = fim_generic(cols, 2.0)
        assert np.allclose(f2.entries, f1.entries / 2.0, rtol=1e-14)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        cols = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(4)]
        f = fim_generic(cols, 0.3)
        expect = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                expect[i, j] = (2 / 0.3) * np.real(np.vdot(cols[i], cols[j]))
        assert np.allclose(f.entries, 0.5 * (expect + expect.T), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fim_generic([np.ones(3), np.ones(4)], 1.0)

    def test_psd_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cols = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(5)]
            f = fim_generic(cols, 1e-3).entries
            eigs = np.linalg.eigvalsh(f)
            assert eigs.min() >= -1e-9 * np.linalg.norm(f)


class TestSbFim:
    def test_gain_block_proportional_identity(self, ula, pilots):
        f = fim_sb_single(0.37, 1e-6 + 2e-6j, ula, pilots, NOISE)
        assert f.entries[1, 1] == pytest.approx(f.entries[2, 2], rel=1e-14)
        assert f.entries[1, 2] == 0.0

    def test_structural_equivalence_with_stacked_derivatives(self, ula, pilots):
        rng = np.random.default_rng(3)
        for _ in range(30):
            alpha = rng.uniform(-1.3, 1.3)
            gain = random_gain(rng)
            closed = fim_sb_single(alpha, gain, ula, pilots, NOISE)
            generic = fim_generic(sb_derivative_columns(alpha, gain, ula, pilots), NOISE)
            # entrywise 1e-9 relative, with the matrix scale as the floor for
            # entries that are exact zeros of the centered-array structure
            scale = np.linalg.norm(closed.entries)
            assert np.allclose(closed.entries, generic.entries, rtol=1e-9, atol=1e-9 * scale)

    def test_gain_power_doubles_angle_entry_only(self, ula, pilots):
        g = 1e-6 * np.exp(0.3j)
        f1 = fim_sb_single(0.5, g, ula, pilots, NOISE)
        f2 = fim_sb_single(0.5, np.sqrt(2) * g, ula, pilots, NOISE)
        assert f2.entries[0, 0] == pytest.approx(2 * f1.entries[0, 0], rel=1e-12)
        assert f2.entries[1, 1] == pytest.approx(f1.entries[1, 1], rel=1e-12)
        assert f2.entries[2, 2] == pytest.approx(f1.entries[2, 2], rel=1e-12)


class TestCrbAlphaClosed:
    def test_matches_matrix_inversion(self, ula, pilots):
        rng = np.random.default_rng(4)
        for _ in range(100):
            alpha = rng.uniform(-1.3, 1.3)
            gain = random_gain(rng)
            crb = crb_alpha_closed(alpha, gain, ula, pilots, NOISE)
            f = fim_sb_single(alpha, gain, ula, pilots, NOISE)
            assert crb == pytest.approx(np.linalg.inv(f.entries)[0, 0], rel=1e-9)

    def test_inverse_gain_power(self, ula, pilots):
        c1 = crb_alpha_closed(0.4, 1e-6, ula, pilots, NOISE)
        c2 = crb_alpha_closed(0.4, 2e-6, ula, pilots, NOISE)
        assert c2 == pytest.approx(c1 / 4.0, rel=1e-12)

    def test_proportional_noise(self, ula, pilots):
        c1 = crb_alpha_closed(0.4, 1e-6, ula, pilots, NOISE)
        c2 = crb_alpha_closed(0.4, 1e-6, ula, pilots, 2 * NOISE)
        assert c2 == pytest.approx(2 * c1, rel=1e-12)

    def test_snr_improves_with_closer_target(self, geom, ula, pilots):
        # same angle, two ranges: the nearer target has the smaller bound
        crbs = []
        for d in (30.0, 60.0):
            q = geom.bs_center + d * np.array([np.sin(0.5), 0.0, np.cos(0.5)])
            crbs.append(crb_alpha_closed(0.5, gains(q, geom)[0], ula, pilots, NOISE))
        assert crbs[0] < crbs[1]


class TestDbFim:
    def test_structural_equivalence(self, ula, panel, code, harmonics, pilots):
        rng = np.random.default_rng(5)
        for _ in range(30):
            xi = rng.uniform(-1.3, 1.3)
            alpha = rng.uniform(-1.3, 1.3)
            gain = random_gain(rng)
            closed = fim_db_single(xi, alpha, gain, ula, panel, code, harmonics, pilots, NOISE)
            generic = fim_generic(
                db_derivative_columns(xi, alpha, gain, ula, panel, code, harmonics, pilots), NOISE
            )
            scale = np.linalg.norm(closed.entries)
            assert np.allclose(closed.entries, generic.entries, rtol=1e-9, atol=1e-9 * scale)

    def test_angle_information_grows_with_harmonics(self, ula, panel, code, pilots):
        vals = [
            fim_db_single(0.6, 0.3, 1e-7, ula, panel, code, HarmonicSet(mf), pilots, NOISE).entries[0, 0]
            for mf in (1, 2, 3, 4, 5)
        ]
        assert all(b >= a - 1e-20 for a, b in zip(vals, vals[1:]))

    def test_alpha_transpose_invariance(self, ula, panel, code, harmonics, pilots):
        # B = A + A^T is symmetric under swapping which side carries alpha
        f1 = fim_db_single(0.5, 0.8, 1e-7, ula, panel, code, harmonics, pilots, NOISE)
        a_r = steering_vector(ula, 0.8)
        a_0 = steering_vector(ula, 0.0)
        b1 = np.outer(a_r, a_0) + np.outer(a_0, a_r)
        b2 = np.outer(a_0, a_r) + np.outer(a_r, a_0)
        t1 = np.real(np.trace(b1 @ pilots.gram() @ b1.conj().T))
        t2 = np.real(np.trace(b2 @ pilots.gram() @ b2.conj().T))
        assert t1 == pytest.approx(t2, rel=1e-14)
        assert f1.entries[0, 0] > 0


class TestCrbXiClosed:
    def test_matches_matrix_inversion(self, ula, panel, code, harmonics, pilots):
        rng = np.random.default_rng(6)
        for _ in range(100):
            xi = rng.uniform(-1.3, 1.3)
            alpha = rng.uniform(-1.3, 1.3)
            gain = random_gain(rng)
            crb = crb_xi_closed(xi, alpha, gain, ula, panel, code, harmonics, pilots, NOISE)
            f = fim_db_single(xi, alpha, gain, ula, panel, code, harmonics, pilots, NOISE)
            assert crb == pytest.approx(np.linalg.inv(f.entries)[0, 0], rel=1e-9)

    def test_monotone_in_harmonic_count(self, ula, panel, code, pilots):
        vals = [
            crb_xi_closed(0.4, 0.2, 1e-7, ula, panel, code, HarmonicSet(mf), pilots, NOISE)
            for mf in (3, 4, 5)
        ]
        assert vals[0] >= vals[1] >= vals[2]

    def test_scalings(self, ula, panel, code, harmonics, pilots):
        c = crb_xi_closed(0.4, 0.2, 1e-7, ula, panel, code, harmonics, pilots, NOISE)
        assert crb_xi_closed(0.4, 0.2, 2e-7, ula, panel, code, harmonics, pilots, NOISE) == pytest.approx(c / 4, rel=1e-12)
        assert crb_xi_closed(0.4, 0.2, 1e-7, ula, panel, code, harmonics, pilots, 3 * NOISE) == pytest.approx(3 * c, rel=1e-12)


class TestMultiTarget:
    def state(self, q, geom):
        ang = angles_from_position(q, geom)
        sb, db = gains(q, geom)
        return TargetState(alpha=ang.alpha, xi=ang.xi, sb_gain=sb, db_gain=db)

    def test_single_target_reduces_to_closed_form(self, geom, ula, panel, code, harmonics, pilots):
        t = self.state(np.array([25.0, 0.0, 45.0]), geom)
        f_sb = fim_multi_target([t], "sb", ula, pilots, NOISE)
        ref = fim_sb_single(t.alpha, t.sb_gain, ula, pilots, NOISE).entries
        assert np.allclose(f_sb.entries, ref, rtol=1e-9, atol=1e-9 * np.linalg.norm(ref))
        f_db = fim_multi_target([t], "db", ula, pilots, NOISE, panel, code, harmonics)
        ref = fim_db_single(t.xi, t.alpha, t.db_gain, ula, panel, code, harmonics, pilots, NOISE).entries
        assert np.allclose(f_db.entries, ref, rtol=1e-9, atol=1e-9 * np.linalg.norm(ref))

    def test_same_angle_pair_is_flagged(self, geom, ula, pilots):
        # two targets on one BS ray: identical alpha, rank-deficient FIM
        t1 = self.state(np.array([20.0, 0.0, 20.0]), geom)
        t2 = self.state(np.array([40.0, 0.0, 40.0]), geom)
        f = fim_multi_target([t1, t2], "sb", ula, pilots, NOISE)
        assert f.condition_number() > 1e10
        with pytest.raises(SingularInformation):
            crbs_from_fim(f)

    def test_well_separated_close_to_single(self, geom, ula, panel, code, harmonics, pilots):
        # per-target bound within 3 dB of the isolated-target bound
        q1, q2 = np.array([-40.0, 0.0, 60.0]), np.array([60.0, 0.0, 40.0])
        t1, t2 = self.state(q1, geom), self.state(q2, geom)
        f = fim_multi_target([t1, t2], "sb", ula, pilots, NOISE)
        both = crbs_from_fim(f)
        solo1 = crb_alpha_closed(t1.alpha, t1.sb_gain, ula, pilots, NOISE)
        solo2 = crb_alpha_closed(t2.alpha, t2.sb_gain, ula, pilots, NOISE)
        assert both[0] < 2.0 * solo1
        assert both[1] < 2.0 * solo2


def patterns(panel, code, harmonics):
    """The switching panel's harmonic-factor source of the double-bounce table."""
    return functools.partial(bounds._patterns, panel, code, harmonics, WavelengthMode.EXACT)


def tables(kinds, panel, code, harmonics):
    """(kind, pattern source) builder tables: the unit source for the single
    bounce, the switching panel for the double."""
    return [(k, bounds._unit if k == "sb" else patterns(panel, code, harmonics)) for k in kinds]


def oracle_fim(states, kind, ula, panel, code, harmonics, pilots):
    """Stacked-derivative FIM over [angles | (Re b, Im b) per target]."""
    cols = [sb_derivative_columns(t.alpha, t.sb_gain, ula, pilots) if kind == "sb" else
            db_derivative_columns(t.xi, t.alpha, t.db_gain, ula, panel, code, harmonics, pilots)
            for t in states]
    return fim_generic([c[0] for c in cols] + [x for c in cols for x in c[1:]], NOISE).entries


def builder(states, kind, ula, panel, code, harmonics, pilots):
    """Builder over the one table ``kind`` around states[1:] (the fixed targets)."""
    return MultiTargetFimBuilder(states[1:], tables([kind], panel, code, harmonics), ula, pilots,
                                 NOISE)


def efim(states, kind, ula, panel, code, harmonics, pilots):
    """(angle EFIM of states[0] against the fixed states[1:], its oracle FIM)."""
    e = builder(states, kind, ula, panel, code, harmonics, pilots).efims(bounds._stacked(states[:1]))
    return e[0, 0], oracle_fim(states, kind, ula, panel, code, harmonics, pilots)


def scene(rng, geom, r):
    """r targets at random well-separated lattice points."""
    state = TestMultiTarget().state
    picks = rng.choice(np.arange(-7, 8) * 10.0, size=r, replace=False)
    return [state(np.array([x, 0.0, rng.uniform(20.0, 90.0)]), geom) for x in picks]


class TestBuilderGram:
    """:meth:`MultiTargetFimBuilder.fim_cells`, formed by the Gram identity,
    against the FIM of the explicit M S-long derivative columns."""

    @pytest.mark.parametrize("kind", ["sb", "db"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_the_stacked_columns(self, geom, ula, panel, code, harmonics, pilots, kind, r):
        rng = np.random.default_rng(20 + r)
        # the moving target also on the BS-panel axis, where a = a_s
        axis = TestMultiTarget().state(np.array([0.0, 0.0, 50.0]), geom)
        for states in (scene(rng, geom, r), [axis] + scene(rng, geom, r)[1:]):
            f = builder(states, kind, ula, panel, code, harmonics, pilots).fim_cells(
                bounds._stacked(states[:1]))[0, 0]
            ref = oracle_fim(states, kind, ula, panel, code, harmonics, pilots)
            d = np.sqrt(np.diag(ref))
            np.testing.assert_allclose(f / np.outer(d, d), ref / np.outer(d, d), rtol=0, atol=1e-12)


class TestEfim:
    """:meth:`MultiTargetFimBuilder.efims` against the stacked-derivative FIM."""

    def test_zero_cross_block(self, geom, ula, panel, code, harmonics, pilots):
        # on the BS boresight the single-bounce gains carry no angle
        # information, so the EFIM is the angle's own information
        t = TestMultiTarget().state(np.array([0.0, 0.0, 40.0]), geom)
        e, f = efim([t], "sb", ula, panel, code, harmonics, pilots)
        assert np.all(np.abs(f[0, 1:]) <= 1e-12 * np.sqrt(f[0, 0] * np.diag(f)[1:]))
        assert e[0, 0] == pytest.approx(f[0, 0], rel=1e-12)

    def test_schur_identity_against_inverse(self, geom, ula, panel, code, harmonics, pilots):
        rng = np.random.default_rng(7)
        for kind in ("sb", "db"):
            for r in (1, 2, 3, 3, 4):
                e, f = efim(scene(rng, geom, r), kind, ula, panel, code, harmonics, pilots)
                assert np.linalg.inv(e)[0, 0] == pytest.approx(np.linalg.inv(f)[0, 0], rel=1e-10)

    @pytest.mark.parametrize("kind", ["sb", "db"])
    def test_closed_forms_without_fixed_targets_match_the_stacked_columns(
            self, geom, ula, panel, code, harmonics, pilots, kind):
        # R = 1 takes the gain Schur complement of the per-bearing column Gram:
        # check it against the inverse of the explicit M S-long columns' FIM,
        # on the BS-panel axis (0, 0, 50) too
        q = [[0.0, 0.0, 50.0], [30.0, 0.0, 40.0], [-40.0, 0.0, 60.0], [60.0, 0.0, 20.0],
             [-65.0, 0.0, 85.0], [10.0, 0.0, 95.0]]
        states = [TestMultiTarget().state(np.array(p), geom) for p in q]
        b = builder(states[:1], kind, ula, panel, code, harmonics, pilots)
        crbs, efims = b.crbs(bounds._stacked(states))[0], b.efims(bounds._stacked(states))[0]
        assert efims.shape == (len(q), 1, 1)
        for t, crb, e in zip(states, crbs, efims[:, 0, 0]):
            ref = np.linalg.inv(oracle_fim([t], kind, ula, panel, code, harmonics, pilots))[0, 0]
            assert crb == pytest.approx(ref, rel=1e-12)
            assert e == pytest.approx(1.0 / ref, rel=1e-12)

    def test_multi_angle_block(self, geom, ula, panel, code, harmonics, pilots):
        rng = np.random.default_rng(8)
        for kind in ("sb", "db"):
            e, f = efim(scene(rng, geom, 4), kind, ula, panel, code, harmonics, pilots)
            s = np.sqrt(np.diag(f)[:4])
            block = np.linalg.inv(np.linalg.inv(f)[:4, :4]) / np.outer(s, s)
            np.testing.assert_allclose(e / np.outer(s, s), block, rtol=0, atol=1e-12)


class TestPeb:
    def peb(self, q, geom, ula, panel, code, harmonics, pilots, noise):
        """peb_cells at one point over builders with no fixed target, unit-RCS
        gains; NaN where masked."""
        state = TestMultiTarget().state(q, geom)
        return self.peb_multi([state], q, geom, ula, panel, code, harmonics, pilots, noise)

    def peb_multi(self, states, q, geom, ula, panel, code, harmonics, pilots, noise=NOISE):
        """peb_cells of target 0 of one scene, fixed states[1:]; NaN where masked."""
        b = MultiTargetFimBuilder(states[1:], tables(("sb", "db"), panel, code, harmonics), ula,
                                  pilots, noise)
        return peb_cells(b, bounds._stacked(states[:1]), q[None], geom)[0]

    def test_noise_scaling(self, geom, ula, panel, code, harmonics, pilots):
        q = np.array([30.0, 0.0, 40.0])
        p1 = self.peb(q, geom, ula, panel, code, harmonics, pilots, NOISE)
        p2 = self.peb(q, geom, ula, panel, code, harmonics, pilots, 4 * NOISE)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-9)

    def test_axis_is_masked(self, geom, ula, panel, code, harmonics, pilots):
        q = np.array([0.0, 0.0, 50.0])
        assert np.isnan(self.peb(q, geom, ula, panel, code, harmonics, pilots, NOISE))

    def test_independent_two_path_evaluation(self, geom, ula, panel, code, harmonics, pilots):
        # independent oracle: eigendecomposition path for sqrt(tr(inv))
        q = np.array([22.0, 0.0, 61.0])
        sb, db = gains(q, geom)
        got = self.peb(q, geom, ula, panel, code, harmonics, pilots, NOISE)
        ang = angles_from_position(q, geom)
        fa = fim_sb_single(ang.alpha, sb, ula, pilots, NOISE).entries
        fx = fim_db_single(ang.xi, ang.alpha, db, ula, panel, code, harmonics, pilots, NOISE).entries
        ea = 1.0 / np.linalg.inv(fa)[0, 0]
        ex = 1.0 / np.linalg.inv(fx)[0, 0]
        from stcmsense.geometry import jacobian_angles_to_position

        t = jacobian_angles_to_position(q, geom)
        fpos = t.T @ np.diag([ea, ex]) @ t
        eigs = np.linalg.eigvalsh(fpos)
        assert got == pytest.approx(np.sqrt(np.sum(1.0 / eigs)), rel=1e-9)

    def test_negative_angle_information_is_masked(self, geom):
        # an indefinite angle EFIM shows as a negative pair information: the
        # negative_info mask, before any invalid sqrt
        q = np.array([[30.0, 0.0, 60.0], [30.0, 0.0, 60.0], [-20.0, 0.0, 40.0]])
        e = np.array([[1e6, -1e3], [-1.0, 1e6], [1e6, 1e6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peb = bounds._position_peb(q, geom, e, CONDITION_LIMIT)
        assert np.isnan(peb[:2]).all() and np.isfinite(peb[2])

    def test_multi_equal_angle_masked(self, geom, ula, panel, code, harmonics, pilots):
        q1, q2 = np.array([20.0, 0.0, 20.0]), np.array([40.0, 0.0, 40.0])
        s = TestMultiTarget().state
        assert np.isnan(self.peb_multi([s(q1, geom), s(q2, geom)], q1, geom,
                                       ula, panel, code, harmonics, pilots))


class TestRisBaseline:
    def test_xi_information_collapses(self, geom, ula, panel, pilots):
        rng = np.random.default_rng(9)
        prof = RisProfile(np.exp(2j * np.pi * rng.uniform(size=64)))
        for _ in range(20):
            xi = rng.uniform(-1.2, 1.2)
            alpha = rng.uniform(-1.2, 1.2)
            f, crb = crb_ris(xi, alpha, 1e-7, prof, panel, ula, pilots, NOISE)
            assert not np.isfinite(crb) or crb >= 1e10

    def test_gain_block_stays_invertible(self, ula, panel, pilots):
        f, _ = crb_ris(0.5, 0.3, 1e-7, RisProfile(np.ones(64, complex)), panel, ula, pilots, NOISE)
        gain_block = f.entries[1:, 1:]
        crbs = np.diag(np.linalg.inv(gain_block))
        assert np.all(np.isfinite(crbs)) and np.all(crbs > 0)

    def test_single_harmonic_panel_equally_blind(self, ula, panel, code, pilots):
        # the switching panel restricted to m = 0 alone has the same
        # rank-one structure, hence no xi information either: every pair is
        # masked, not only those where rounding leaves no positive EFIM
        rng = np.random.default_rng(13)
        for xi, alpha in rng.uniform(-1.3, 1.3, (200, 2)):
            with pytest.raises(SingularInformation):
                crb_xi_closed(xi, alpha, random_gain(rng, 1e-7), ula, panel, code, HarmonicSet(0),
                              pilots, NOISE)

    def test_fim_matches_the_stacked_columns(self, geom, ula, panel, pilots):
        # columns [gain dg v, g v, 1j g v] of the explicit M S-long double-bounce
        # regressor v, g = sum_n w_n exp(j k sin(xi) x_n) written out per element;
        # on the BS-panel axis (0, 0, 50) too
        rng = np.random.default_rng(14)
        prof = RisProfile(np.exp(2j * np.pi * rng.uniform(size=panel.n_elements)))
        x = np.repeat((np.arange(panel.n_x) - (panel.n_x - 1) / 2) * panel.spacing, panel.n_y)
        k = 2 * np.pi / panel.wavelength
        for q in ([0.0, 0.0, 50.0], [30.0, 0.0, 40.0], [-40.0, 0.0, 60.0], [60.0, 0.0, 20.0],
                  [-65.0, 0.0, 85.0], [10.0, 0.0, 95.0]):
            t = TestMultiTarget().state(np.array(q), geom)
            terms = prof.phases * np.exp(1j * k * np.sin(t.xi) * x)
            g, dg = terms.sum(), (1j * k * np.cos(t.xi) * x * terms).sum()
            v = db_regressor(t.alpha, np.ones(1), ula, pilots)
            ref = fim_generic([t.db_gain * dg * v, g * v, 1j * g * v], NOISE).entries
            f = crb_ris(t.xi, t.alpha, t.db_gain, prof, panel, ula, pilots, NOISE)[0].entries
            d = np.sqrt(np.diag(ref))
            np.testing.assert_allclose(f / np.outer(d, d), ref / np.outer(d, d), rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.diag(f), np.diag(ref), rtol=1e-12)


def svd_inverse(f, limit=CONDITION_LIMIT):
    """The SVD rule written out: inverses where the scaled condition number
    is within the limit, NaN elsewhere."""
    ok = bounds.scale_invariant_cond(f) <= limit
    out = np.full(f.shape, np.nan)
    out[ok] = np.linalg.inv(f[ok])
    return out


def spectrum(k, kappa, split):
    """k eigenvalues summing to k with ratio kappa: half at the top and half
    at the bottom (kappa_F / kappa_2 near k / 2) when ``split``, else one at
    each end and the rest at their geometric mean (kappa_F / kappa_2 near 1)."""
    if split:
        lam = np.where(np.arange(k) < k // 2, 1.0, 1.0 / kappa)
    else:
        lam = np.full(k, kappa ** -0.5)
        lam[0], lam[-1] = 1.0, 1.0 / kappa
    return lam * k / lam.sum()


class TestCertificate:
    """The kappa_F certificate of _certified_inverse against the SVD rule."""

    @pytest.mark.parametrize("k", [2, 3, 20, 30])
    def test_mask_equals_the_svd_rule(self, k):
        rng = np.random.default_rng(k)
        band = np.log10([CONDITION_LIMIT / (2 * k), 2 * k * CONDITION_LIMIT])
        log_kappa = np.concatenate([
            rng.uniform(0.0, 18.0, 40),                                    # everywhere
            rng.uniform(*band, 80),                                        # undecided band
            np.log10(CONDITION_LIMIT) + rng.uniform(-4e-4, 4e-4, 40),     # at the limit
            np.log10(4.0 * CONDITION_LIMIT / k) + rng.uniform(-0.05, 0.05, 20),  # split: kappa_F ~ 2 limit
        ])
        mats = []
        for i, lk in enumerate(log_kappa):
            c = random_correlation.rvs(spectrum(k, 10.0 ** lk, split=bool(i % 2)), random_state=rng)
            d = 10.0 ** rng.uniform(-3.0, 3.0, k)   # parameters in mixed units
            f = d[:, None] * c * d[None, :]
            mats.append(0.5 * (f + f.T))
        f = np.array(mats)
        cond = bounds.scale_invariant_cond(f)
        ok, (x,) = bounds._certified_inverse([f], CONDITION_LIMIT)
        np.testing.assert_array_equal(ok, cond <= CONDITION_LIMIT)
        assert np.linalg.inv(f[ok]).tobytes() == x[ok].tobytes()
        # the sample reaches both sides of the limit, inside and outside the band
        inside = (cond > CONDITION_LIMIT / (2 * k)) & (cond < 2 * k * CONDITION_LIMIT)
        assert inside.sum() >= 80 and ok[inside].any() and not ok[inside].all()
        assert ok[~inside].any() and not ok[~inside].all()

    @pytest.mark.parametrize("k", [2, 3])
    def test_edge_stack_matches_the_svd_rule(self, k):
        rng = np.random.default_rng(11)
        good = [np.eye(k) + 0.1 * (a + a.T) for a in rng.standard_normal((3, k, k))]
        singular = np.ones((k, k))  # LU meets an exactly zero pivot
        edge = [singular]
        for value, at in [(np.nan, (0, 1)), (np.inf, (1, 0)), (-np.inf, (0, 0)),
                          (0.0, (1, 1)), (-1.0, (0, 0))]:
            m = np.eye(k)
            m[at] = value
            edge.append(m)
        near = np.eye(k)
        near[0, 1] = near[1, 0] = 1.0 - 2.0 / (CONDITION_LIMIT + 1.0)  # kappa_2 ~ the limit
        f = np.array(good + edge + [near] + good)
        assert np.linalg.matrix_rank(singular) < k
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(f)
        got = bounds._inverse(f, CONDITION_LIMIT)
        assert got.tobytes() == svd_inverse(f).tobytes()
        ok = ~np.isnan(got).any(axis=(1, 2))
        assert ok.sum() == 6 + (not np.isnan(svd_inverse(near[None])).any())
        assert got[ok].tobytes() == np.linalg.inv(f[ok]).tobytes()
        empty = np.empty((0, k, k))
        assert bounds._inverse(empty, CONDITION_LIMIT).shape == (0, k, k)
        assert bounds._certified_inverse([empty], CONDITION_LIMIT)[0].shape == (0,)

    def test_whole_stack_fallback(self, monkeypatch):
        # if slogdet did not name the member inv refuses, every row takes
        # the SVD rule
        f = np.array([np.eye(2), np.ones((2, 2)), [[2.0, 1.0], [1.0, 2.0]]])
        monkeypatch.setattr(np.linalg, "slogdet", lambda g: (np.ones(len(g)), np.zeros(len(g))))
        assert bounds._inverse(f, CONDITION_LIMIT).tobytes() == svd_inverse(f).tobytes()

    def test_svd_pass_of_an_lu_singular_member_raises(self, monkeypatch):
        # the SVD rule passing a matrix inv refuses raises, as inv(f[ok]) does
        f = np.array([np.eye(2), np.ones((2, 2))])
        monkeypatch.setattr(bounds, "scale_invariant_cond", lambda m: np.zeros(len(m)))
        with pytest.raises(np.linalg.LinAlgError):
            svd_inverse(f)
        with pytest.raises(np.linalg.LinAlgError):
            bounds._inverse(f, CONDITION_LIMIT)


def shared_stack(rng, k, n, kappa_shared=10.0):
    """n PSD FIMs of size k, in mixed units, whose trailing (k - 3) block C is
    one shared matrix (kappa_2 ``kappa_shared`` after scaling; inf is rank
    one); the moving Schur complements have kappa_2 from 1 to 1e18, densest
    near the limit."""
    m = k - 3
    d_f = 10.0 ** rng.uniform(-3.0, 3.0, m)
    corr = (np.ones((m, m)) if np.isinf(kappa_shared) else
            random_correlation.rvs(spectrum(m, kappa_shared, False), random_state=rng))
    c = d_f[:, None] * corr * d_f
    log_kappa = np.concatenate([rng.uniform(0.0, 18.0, n // 2),
                                np.log10(CONDITION_LIMIT) + rng.uniform(-1.5, 1.5, n - n // 2)])
    mats = []
    for lk in log_kappa:
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s = v @ np.diag([1.0, 10.0 ** (-lk / 2), 10.0 ** -lk]) @ v.T
        x = rng.standard_normal((3, m)) / d_f
        b = x @ c  # B C^+ B^T = X C X^T: F is PSD with Schur complement S
        f = np.block([[s + b @ x.T, b], [b.T, c]])
        d = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 3), np.ones(m)])
        f = d[:, None] * f * d
        mats.append(0.5 * (f + f.T))
    f = np.array(mats)
    f[:, 3:, 3:] = 0.5 * (c + c.T)  # bitwise one shared block
    return f


def block_certificate(f):
    """(ok, CRB of parameter 0, block kappa_F) of stacked FIMs through the
    shared-block path, scaled as the builder scales them."""
    s = np.sqrt(np.diagonal(f, axis1=1, axis2=2))
    ft = f / (s[:, :, None] * s[:, None, :])
    shared = bounds._shared_block(ft[0, 3:, 3:], CONDITION_LIMIT)
    ok, t, _, kappa = bounds._schur(ft[:, :3, :3], ft[:, :3, 3:], shared, CONDITION_LIMIT)
    return ok, t[:, 0, 0] / s[:, 0] ** 2, kappa


class TestBlockCertificate:
    """The Schur-block kappa_F and CRB of _schur against the full matrices."""

    @pytest.mark.parametrize("k", [6, 30])
    def test_matches_the_full_inverse_and_the_svd_rule(self, k):
        rng = np.random.default_rng(100 + k)
        f = shared_stack(rng, k, 240)
        ok, crb, kappa = block_certificate(f)
        cond = bounds.scale_invariant_cond(f)
        np.testing.assert_array_equal(ok, cond <= CONDITION_LIMIT)
        assert ok.any() and not ok.all() and (cond < 1e4).any() and (cond > 1e16).any()
        # the block kappa_F is the full one, where the full inverse is accurate
        s = np.sqrt(np.diagonal(f, axis1=1, axis2=2))
        ft = f / (s[:, :, None] * s[:, None, :])
        well = cond <= 1e6
        full = np.linalg.norm(ft[well], axis=(1, 2)) * np.linalg.norm(np.linalg.inv(ft[well]), axis=(1, 2))
        assert well.sum() >= 25
        np.testing.assert_allclose(kappa[well], full, rtol=1e-9)
        ref = np.diagonal(svd_inverse(ft), axis1=1, axis2=2)[:, 0] / s[:, 0] ** 2
        np.testing.assert_array_equal(np.isnan(ref), ~ok)
        assert np.all(np.abs(crb[ok] - ref[ok]) <= 64 * cond[ok] * EPS * np.abs(ref[ok]))

    @pytest.mark.parametrize("kappa_shared", [1e14, np.inf])
    def test_a_failing_shared_block_masks_every_member(self, kappa_shared):
        f = shared_stack(np.random.default_rng(3), 6, 40, kappa_shared)
        ok, _, _ = block_certificate(f)
        assert not ok.any()
        assert (bounds.scale_invariant_cond(f) > CONDITION_LIMIT).all()

    def test_block_diagonal_certificate_matches_the_svd_rule(self):
        # the peb-map angle EFIM: two R x R blocks certified as one 2R x 2R matrix
        rng = np.random.default_rng(12)
        blocks = []
        for _ in range(2):
            f = []
            for lk in rng.uniform(0.0, 16.0, 120):
                c = random_correlation.rvs(spectrum(10, 10.0 ** lk, split=lk > 8), random_state=rng)
                d = 10.0 ** rng.uniform(-3.0, 3.0, 10)
                f.append(0.5 * (d[:, None] * c * d + (d[:, None] * c * d).T))
            blocks.append(np.array(f))
        ok, xs = bounds._certified_inverse(blocks, CONDITION_LIMIT)
        zero = np.zeros_like(blocks[0])
        full = np.block([[blocks[0], zero], [zero, blocks[1]]])
        cond = bounds.scale_invariant_cond(full)
        np.testing.assert_array_equal(ok, cond <= CONDITION_LIMIT)
        assert ok.any() and not ok.all()
        for f, x in zip(blocks, xs):
            assert x[ok].tobytes() == np.linalg.inv(f[ok]).tobytes()


class TestDegenerateFixedScene:
    """Fixed blocks that fail the limit mask every cell, as the full FIMs do."""

    @pytest.mark.parametrize("case", ["absent", "coincident"])
    def test_every_cell_is_masked(self, geom, ula, panel, code, harmonics, pilots, case):
        state = TestMultiTarget().state
        fixed = [state(np.array([30.0, 0.0, 60.0]), geom), state(np.array([-40.0, 0.0, 50.0]), geom)]
        if case == "absent":  # no reflection: its angle column, and so its diagonal, is zero
            fixed[0] = TargetState(fixed[0].alpha, fixed[0].xi, 0.0, 0.0)
        else:
            fixed[1] = fixed[0]
        x, z = np.meshgrid(np.arange(-70.0, 71.0, 20.0), np.arange(10.0, 91.0, 20.0))
        q = np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])
        moving = bounds._stacked([state(p, geom) for p in q])
        b = MultiTargetFimBuilder(fixed, tables(("sb", "db"), panel, code, harmonics), ula, pilots,
                                  NOISE)
        for crbs, fims in zip(b.crbs(moving), b.fim_cells(moving)):
            assert np.isnan(crbs).all()
            assert np.isnan(svd_inverse(fims)).all()
        assert np.isnan(peb_cells(b, moving, q, geom)).all()

    def test_coincident_scene_masks_every_map_cell(self, tmp_path):
        scene = [{"position": [30.0, 0.0, 60.0], "rcs_dbsm": 0.0}] * 2
        cfg = merge_config({"grid_res_m": 20.0, "n_targets": 2, "scene": scene})
        files = run_crb_map(cfg, str(tmp_path)) + run_peb_map(cfg, str(tmp_path))
        for path in (f for f in files if f.endswith(".csv")):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(r["masked"] == "true" for r in rows), path

    def test_absent_points_carry_no_echo(self, tmp_path):
        # the echo gives an absent point zero gain, so the bounds leave it out
        obj = {"position": [30.0, 0.0, 60.0], "rcs_dbsm": 0.0}
        absent = {"position": [-40.0, 0.0, 50.0], "kind": "absent"}
        csvs = []
        for k, scene in enumerate(([absent, obj], [obj])):
            cfg = merge_config({"grid_res_m": 20.0, "n_targets": 2, "scene": scene})
            (tmp_path / str(k)).mkdir()
            files = run_crb_map(cfg, str(tmp_path / str(k))) + run_peb_map(cfg, str(tmp_path / str(k)))
            csvs.append([Path(f).read_bytes() for f in files if f.endswith(".csv")])
        assert csvs[0] == csvs[1]


class TestOneTargetMask:
    """With no fixed target the CRB is masked where the FIM's scaled
    condition number exceeds the limit, the rule of every other R."""

    @pytest.mark.parametrize("m_f", [0, 3])
    @pytest.mark.parametrize("kind", [0, 1], ids=["sb", "db"])
    def test_nan_pattern_is_the_condition_rule(self, m_f, kind):
        cfg = merge_config({"grid_res_m": 10.0, "harmonics": m_f})
        model = build_model(cfg)
        xs, zs = grid_points(model.geom, 10.0)
        x, z = np.meshgrid(xs, zs)
        q = np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])
        q = q[~terminal_mask(q, model.geom)]
        moving = experiments._target_state(q, model)
        b = experiments._builder(model, ())
        cond = bounds.scale_invariant_cond(b.fim_cells(moving)[kind])
        np.testing.assert_array_equal(np.isnan(b.crbs(moving)[kind]), cond > CONDITION_LIMIT)
        # a single harmonic leaves the xi column parallel to the gain columns
        # (kappa_2 4e15 and up); elsewhere every cell is well inside the limit
        assert (cond > CONDITION_LIMIT).all() if (kind, m_f) == (1, 0) else (cond < 1e3).all()


class TestOneMapPath:
    """Every bound map runs through one builder over its term tables; R = 1
    is the builder with no fixed target."""

    def test_single_target_maps_call_the_builder(self, tmp_path, monkeypatch):
        calls, built = set(), []
        for name in ("crbs", "efims"):
            def counted(self, moving, _name=name, _method=getattr(MultiTargetFimBuilder, name)):
                calls.add((self.kinds, _name, self.n_targets))
                return _method(self, moving)
            monkeypatch.setattr(MultiTargetFimBuilder, name, counted)
        init = MultiTargetFimBuilder.__init__
        monkeypatch.setattr(MultiTargetFimBuilder, "__init__",
                            lambda self, *args: built.append(self) or init(self, *args))
        cfg = merge_config({"grid_res_m": 20.0, "threads": 1})
        expected = {run_crb_map: {(("sb", "db"), "crbs", 1)},
                    run_peb_map: {(("sb", "db"), "efims", 1)},
                    run_ris_compare: {(("db", "db"), "crbs", 1)}}
        for run, names in expected.items():
            calls.clear()
            built.clear()
            run(cfg, str(tmp_path))
            assert calls == names, run.__name__
            assert len(built) == 1, run.__name__

    def test_an_absent_only_scene_is_the_one_target_map(self, tmp_path):
        absent = [{"position": [-40.0, 0.0, 50.0], "kind": "absent"},
                  {"position": [30.0, 0.0, 60.0], "kind": "absent"}]
        csvs = []
        for k, over in enumerate(({"n_targets": 2, "scene": absent}, {"n_targets": 1})):
            cfg = merge_config({"grid_res_m": 10.0, **over})
            (tmp_path / str(k)).mkdir()
            files = run_crb_map(cfg, str(tmp_path / str(k))) + run_peb_map(cfg, str(tmp_path / str(k)))
            csvs.append([Path(f).read_bytes() for f in files if f.endswith(".csv")])
        assert len(csvs[0]) == 3 and csvs[0] == csvs[1]
