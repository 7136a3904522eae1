import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcmsense import channel
from stcmsense.bounds import MultiTargetFimBuilder, _patterns, _unit
from stcmsense.channel import (
    PilotMatrix,
    TargetState,
    UlaLayout,
    _per_angle,
    _target_state,
    dft_pilots,
    path_gain,
    stack,
    steering_derivative,
    steering_vector,
    synthesize_echo,
    vec,
    vec_outer,
)
from stcmsense.config import build_model, merge_config
from stcmsense.detection import Combiner, effective_energy_cells
from stcmsense.errors import NonPositiveDistance, NotPerfectSquare
from stcmsense.geometry import ScatterPoint, TargetKind, angles_from_position, triangle_distances
from stcmsense.metasurface import HarmonicSet, WavelengthMode, harmonic_pattern_batch
from stcmsense.rng import complex_normal, stream_rng

from echo_oracle import db_regressor, sb_regressor

NOISE_POWER = 1e-15          # -120 dBm
PILOT_POWER = 10 ** (-1.8)   # 12 dBm


class TestSteering:
    def test_boresight_all_ones(self, ula):
        assert np.allclose(steering_vector(ula, 0.0), np.ones(16), atol=1e-15)

    def test_unit_modulus_norm(self, ula):
        rng = np.random.default_rng(1)
        for a in rng.uniform(-1.5, 1.5, size=50):
            v = steering_vector(ula, a)
            assert np.allclose(np.abs(v), 1.0, atol=1e-14)
            assert np.linalg.norm(v) == pytest.approx(4.0, rel=1e-14)

    def test_negative_angle_is_conjugate(self, ula):
        for a in np.linspace(-1.4, 1.4, 29):
            assert np.allclose(steering_vector(ula, -a), np.conj(steering_vector(ula, a)), atol=1e-14)

    def test_derivative_matches_fd(self, ula):
        rng = np.random.default_rng(2)
        h = 1e-7
        worst = 0.0
        for a in rng.uniform(-1.4, 1.4, size=200):
            fd = (steering_vector(ula, a + h) - steering_vector(ula, a - h)) / (2 * h)
            an = steering_derivative(ula, a)
            worst = max(worst, np.max(np.abs(an - fd)) / np.max(np.abs(fd)))
        assert worst < 1e-6

    def test_single_antenna_derivative_zero(self):
        ula1 = UlaLayout(m_antennas=1, spacing=0.015, carrier_hz=1e10)
        assert steering_derivative(ula1, 0.4) == pytest.approx(0.0)

    def test_entrywise_phase_orthogonality(self, ula):
        # unit-modulus trajectories: Re{conj(a_n) da_n} = 0 per entry
        a = steering_vector(ula, 0.6)
        da = steering_derivative(ula, 0.6)
        assert np.allclose(np.real(np.conj(a) * da), 0.0, atol=1e-12)


class TestPilots:
    def test_orthogonality_m16(self, pilots):
        x = pilots.symbols
        gram = x @ x.conj().T
        expect = (np.linalg.norm(x, "fro") ** 2 / 16) * np.eye(16)
        assert np.allclose(gram, expect, atol=1e-18)

    def test_total_power_is_frobenius(self, pilots):
        assert np.linalg.norm(pilots.symbols, "fro") ** 2 == pytest.approx(PILOT_POWER, rel=1e-12)

    def test_m4_equals_scaled_kron_oracle(self):
        # oracle: explicit 2-point DFT Kronecker square
        d2 = np.array([[1, 1], [1, -1]], dtype=complex)
        kron = np.kron(d2, d2)
        p4 = dft_pilots(4, 2.0)
        assert np.allclose(p4.symbols, np.sqrt(2.0) / 4.0 * kron, atol=1e-14)

    def test_not_perfect_square_raises(self):
        with pytest.raises(NotPerfectSquare):
            dft_pilots(12, 1.0)

    def test_column_covariance_proportional_identity(self, pilots):
        r = pilots.gram()
        off = r - np.diag(np.diag(r))
        assert np.max(np.abs(off)) < 1e-18
        assert np.allclose(np.diag(r).real, np.diag(r).real[0], rtol=1e-12)


class TestSampleCovariance:
    # the pilot Gram X X^H is the unnormalized sample covariance of the symbols
    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        acc = np.zeros((4, 4), dtype=complex)
        for s in range(6):
            acc += np.outer(x[:, s], np.conj(x[:, s]))
        assert np.allclose(PilotMatrix(x, 1.0).gram(), acc, atol=1e-14)

    def test_rank_one_for_repeated_symbol(self):
        col = np.array([1.0, 1j, -1.0, -1j])
        x = np.tile(col[:, None], (1, 5))
        r = PilotMatrix(x, 1.0).gram()
        assert np.linalg.matrix_rank(r, tol=1e-12) == 1


class TestPathGain:
    def test_inverse_square_law(self):
        g1 = abs(path_gain(10.0))
        g2 = abs(path_gain(20.0))
        assert g2 / g1 == pytest.approx(0.25, rel=1e-12)

    def test_zero_rcs_gives_zero(self):
        assert path_gain(25.0, rcs_sqrt=0.0) == 0

    def test_nonpositive_distance_raises(self):
        with pytest.raises(NonPositiveDistance):
            path_gain(0.0)

    def test_sb_db_magnitude_ratio(self, geom):
        # roundtrips 2 d_r = 100 and d_S + d_r + d_r' ; ratio of magnitudes
        # follows the inverse-square path law exactly
        p = ScatterPoint(position=[0.0, 0.0, 50.0], rcs_sqrt=10 ** (1 / 20),
                         kind=TargetKind.HUMAN_LIKE)
        d_r, d_s, d_rp = triangle_distances(p.position, geom)
        assert 2 * d_r == pytest.approx(100.0)
        assert d_s + d_r + d_rp == pytest.approx(200.0)
        sb, db = (path_gain(d, p.rcs_sqrt) for d in (2 * d_r, d_s + d_r + d_rp))
        assert abs(sb) / abs(db) == pytest.approx((200.0 / 100.0) ** 2, rel=1e-12)


class TestEchoSynthesis:
    def test_empty_scene_zero_noise_only_c1(self, model, harmonics):
        bundle = synthesize_echo([], model, rng=None, keep_components=True)
        for m in harmonics.members:
            comp = bundle.components[m]
            assert np.allclose(bundle.harmonic(m), comp["c1"], atol=0)
            assert np.max(np.abs(comp["c2"])) == 0
            assert np.max(np.abs(comp["c3"])) == 0

    def test_c2_only_at_carrier(self, model, harmonics):
        p = ScatterPoint(position=[20.0, 0.0, 40.0], rcs_sqrt=1.0)
        bundle = synthesize_echo([p], model, rng=None, keep_components=True)
        for m in harmonics.members:
            c2 = bundle.components[m]["c2"]
            if m == 0:
                assert np.max(np.abs(c2)) > 0
            else:
                assert np.max(np.abs(c2)) == 0

    def test_component_assembly_oracle(self, model, geom, ula, panel, code, harmonics, pilots):
        # independent assembly of c1..c4 from first principles at m = 0
        p = ScatterPoint(position=[25.0, 0.0, 60.0], rcs_sqrt=2.0)
        bundle = synthesize_echo([p], model, rng=None, keep_components=True)
        lam = ula.wavelength
        ang = angles_from_position(p.position, geom)
        d_r, d_s, d_rp = triangle_distances(p.position, geom)
        x = pilots.symbols
        a0 = steering_vector(ula, 0.0)
        ar = steering_vector(ula, ang.alpha)
        eta, _ = harmonic_pattern_batch(panel, code, harmonics, [ang.xi, 0.0], 0.0)
        eta, eta_p = eta[:, 0], eta[:, 1]
        g_sb = (lam / (4 * np.pi * (2 * d_r) ** 2)) * np.exp(-2j * np.pi * 2 * d_r / lam) * 2.0
        g_db = (lam / (4 * np.pi * (d_s + d_r + d_rp) ** 2)) * np.exp(-2j * np.pi * (d_s + d_r + d_rp) / lam) * 2.0
        g_c1 = (lam / (4 * np.pi * (2 * d_s) ** 2)) * np.exp(-2j * np.pi * 2 * d_s / lam)
        i0 = harmonics.members.index(0)
        expect = (
            g_c1 * eta_p[i0] * np.outer(a0, a0) @ x
            + g_sb * np.outer(ar, ar) @ x
            + g_db * eta[i0] * np.outer(ar, a0) @ x
            + g_db * eta[i0] * np.outer(a0, ar) @ x
        )
        assert np.allclose(bundle.harmonic(0), expect, rtol=1e-12, atol=1e-30)

    def test_noise_power_and_reproducibility(self, model):
        h1 = HarmonicSet(1)
        draws = []
        for _ in range(2):
            rng = stream_rng(77, 1, 2)
            b = synthesize_echo([], replace(model, harmonics=h1), rng=rng, keep_components=True)
            draws.append(np.concatenate([b.components[m]["noise"].ravel() for m in h1.members]))
        assert np.array_equal(draws[0], draws[1])
        # empirical power over >= 1e5 samples within 1 percent
        rng = stream_rng(78, 0)
        big = synthesize_echo([], replace(model, harmonics=HarmonicSet(0)), rng=rng,
                              keep_components=True)
        samples = [big.components[0]["noise"].ravel()]
        for k in range(1, 400):
            b = synthesize_echo([], replace(model, harmonics=HarmonicSet(0)),
                                rng=stream_rng(78, k), keep_components=True)
            samples.append(b.components[0]["noise"].ravel())
        n = np.concatenate(samples)
        assert n.size >= 100_000
        assert np.mean(np.abs(n) ** 2) == pytest.approx(NOISE_POWER, rel=0.01)

    def test_echo_linearity_in_rcs(self, model, harmonics):
        p1 = ScatterPoint(position=[30.0, 0.0, 30.0], rcs_sqrt=1.0)
        p2 = ScatterPoint(position=[30.0, 0.0, 30.0], rcs_sqrt=3.0)
        b1 = synthesize_echo([p1], model, keep_components=True)
        b2 = synthesize_echo([p2], model, keep_components=True)
        for m in harmonics.members:
            for c in ("c2", "c3", "c4"):
                assert np.allclose(b2.components[m][c], 3.0 * b1.components[m][c], rtol=1e-12)
            assert np.allclose(b2.components[m]["c1"], b1.components[m]["c1"], rtol=0)


class TestStacking:
    def test_sb_stack_recovers_c2_matrix(self, model):
        p = ScatterPoint(position=[-18.0, 0.0, 55.0], rcs_sqrt=1.5)
        y, regs, gains = stack("sb", [p], model)
        bundle = synthesize_echo([p], model, keep_components=True)
        assert np.allclose(np.reshape(y, (16, 16), order="F"), bundle.components[0]["c2"],
                           rtol=1e-12, atol=1e-30)
        assert np.allclose(y, gains[0] * regs[0], rtol=1e-12)

    def test_db_stack_single_target_exact(self, model, harmonics):
        p = ScatterPoint(position=[40.0, 0.0, 70.0], rcs_sqrt=0.7)
        y, regs, gains = stack("db", [p], model)
        assert y.shape == (len(harmonics) * 16 * 16,)
        assert np.allclose(y, gains[0] * regs[0], rtol=1e-12)

    def test_db_regressor_norm_brute_force(self, model, geom, ula, panel, code, harmonics, pilots):
        # oracle: per-harmonic assembly of the c3+c4 blocks
        p = ScatterPoint(position=[33.0, 0.0, 44.0], rcs_sqrt=1.0)
        _, regs, _ = stack("db", [p], model)
        ang = angles_from_position(p.position, geom)
        eta, _ = harmonic_pattern_batch(panel, code, harmonics, ang.xi, 0.0)
        ar = steering_vector(ula, ang.alpha)
        a0 = steering_vector(ula, 0.0)
        b = np.outer(ar, a0) + np.outer(a0, ar)
        acc = 0.0
        for em in eta[:, 0]:
            acc += np.linalg.norm(em * b @ pilots.symbols, "fro") ** 2
        assert np.linalg.norm(regs[0]) ** 2 == pytest.approx(acc, rel=1e-12)

    def test_db_stack_matches_echo_components(self, model, harmonics):
        p = ScatterPoint(position=[12.0, 0.0, 80.0], rcs_sqrt=1.0)
        y, _, _ = stack("db", [p], model)
        bundle = synthesize_echo([p], model, keep_components=True)
        blocks = [
            vec(bundle.components[m]["c3"] + bundle.components[m]["c4"])
            for m in harmonics.members
        ]
        assert np.allclose(y, np.concatenate(blocks), rtol=1e-12, atol=1e-30)


class TestVecOuter:
    def test_rows_match_outer(self, ula, pilots):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        v = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        got = vec_outer(u, v, pilots.symbols)
        for r in range(5):
            assert np.allclose(got[r], vec(np.outer(u[r], v[r]) @ pilots.symbols), rtol=1e-13)

    def test_empty_stack(self, pilots):
        assert vec_outer(np.zeros((0, 16)), np.zeros((0, 16)), pilots.symbols).shape == (0, 256)

    def test_empty_scene_stacks(self, model, harmonics):
        y, regs, gains = stack("sb", [], model)
        assert y.shape == (256,) and regs.shape == (0, 256) and len(gains) == 0
        assert not y.any()
        y, regs, gains = stack("db", [], model)
        assert y.shape == (len(harmonics) * 256,) and regs.shape == (0, len(harmonics) * 256)
        assert not y.any() and len(gains) == 0


class TestPerAngle:
    """``_per_angle`` evaluates an angle-only factor once per distinct angle,
    a chunk at a time, and gathers it per cell."""

    ANGLES = np.array([0.3, -0.7, 0.3, 0.0, -0.0, 1.2, -0.7, 0.3, 0.0, 1e-300, -1.5, 1.2])

    def factors(self, ula, panel, code, harmonics, pilots):
        """Angle-only factors of the package: 1-D, 3-D and 4-D arrays, and tuples
        of 1-D and 2-D arrays.  The per-bearing basis Gram, and the (sb, db)
        spatial Grams read from it, are what a builder with no fixed target
        takes once per distinct bearing; detect-map takes h2 for all of its
        combiners at once."""
        b = MultiTargetFimBuilder([], [("sb", _unit), ("db", _unit)], ula, pilots, 1.0)
        return {"basis_gram": b._basis_gram,
                "spatial_grams": lambda a: b._spatial(b._basis_gram(a)),
                "patterns": functools.partial(_patterns, panel, code, harmonics, WavelengthMode.EXACT),
                "h2": lambda a: effective_energy_cells(a, ula, pilots, Combiner.ALL_ONES),
                "h2_all": lambda a: effective_energy_cells(a, ula, pilots, tuple(Combiner))}

    @pytest.mark.parametrize("chunk", [1, 3, 256])
    def test_bitwise_equal_to_per_cell_calls(self, monkeypatch, ula, panel, code, harmonics,
                                             pilots, chunk):
        monkeypatch.setattr(channel, "ANGLE_CHUNK", chunk)
        for name, fn in self.factors(ula, panel, code, harmonics, pilots).items():
            got = _per_angle(fn, self.ANGLES)
            cells = [fn(np.array([a])) for a in self.ANGLES]
            if isinstance(got, tuple):
                want = tuple(np.concatenate(p) for p in zip(*cells))
                assert len(got) == len(want), name
            else:
                got, want = (got,), (np.concatenate(cells),)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype, name
                assert g.tobytes() == w.tobytes(), name
                # sums over a row of an F-ordered (n, K) stack can round differently
                assert g.flags.c_contiguous, name

    @pytest.mark.parametrize("chunk", [1, 3, 256])
    def test_all_combiner_h2_is_per_combiner_h2(self, monkeypatch, ula, pilots, chunk):
        monkeypatch.setattr(channel, "ANGLE_CHUNK", chunk)
        got = _per_angle(lambda a: effective_energy_cells(a, ula, pilots, tuple(Combiner)),
                         self.ANGLES)
        assert len(got) == len(Combiner)
        for comb, h2 in zip(Combiner, got):
            want = _per_angle(lambda a: effective_energy_cells(a, ula, pilots, comb), self.ANGLES)
            assert h2.tobytes() == want.tobytes(), comb

    @pytest.mark.parametrize("chunk", [1, 3, 256])
    def test_each_distinct_angle_is_evaluated_once(self, monkeypatch, chunk):
        monkeypatch.setattr(channel, "ANGLE_CHUNK", chunk)
        seen = []

        def fn(a):
            assert 1 <= len(a) <= chunk
            seen.extend(a.view(np.int64).tolist())
            return 2.0 * a

        rng = np.random.default_rng(5)
        angles = rng.choice(np.linspace(-1.0, 1.0, 11), 200)
        got = _per_angle(fn, angles)
        assert sorted(seen) == sorted(set(angles.view(np.int64).tolist()))
        assert got.tobytes() == (2.0 * angles).tobytes()

    def test_signed_zeros_stay_apart(self):
        seen = []
        got = _per_angle(lambda a: seen.append(len(a)) or np.copysign(1.0, a), [0.0, -0.0, 0.0, -0.0])
        assert seen == [2]
        assert got.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_scalar_and_empty_angles(self):
        assert _per_angle(np.cos, 0.5).tolist() == [np.cos(0.5)]
        assert _per_angle(lambda a: (a, a), np.array([]))[1].shape == (0,)


def assert_close(got, want, rtol=1e-12):
    """||got - want|| <= rtol ||want||: entries that cancel to rounding noise
    in the pilot products would fail an entrywise relative test."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestMultiTargetEcho:
    """Three targets, one of them absent, with explicit fadings: every
    component is the sum over targets of gain times the oracle regressor."""

    SCENE = [
        ScatterPoint(position=[-35.0, 0.0, 50.0], rcs_sqrt=1.2),
        ScatterPoint(position=[10.0, 0.0, 30.0], rcs_sqrt=0.0, kind=TargetKind.ABSENT),
        ScatterPoint(position=[45.0, 0.0, 75.0], rcs_sqrt=3.0, kind=TargetKind.HUMAN_LIKE),
    ]
    FADINGS = [0.8 - 0.3j, 1.7 + 0.2j, -0.4 + 1.1j]

    def per_target(self, geom, ula, panel, code, harmonics):
        """(alpha, eta over the harmonics, TargetState) of each target."""
        out = []
        for p, nu in zip(self.SCENE, self.FADINGS):
            ang = angles_from_position(p.position, geom)
            eta, _ = harmonic_pattern_batch(panel, code, harmonics, ang.xi, 0.0)
            d_r, d_s, d_rp = triangle_distances(p.position, geom)
            sb, db = (path_gain(d, p.rcs_sqrt, nu, ula.wavelength)
                      for d in (2 * d_r, d_s + d_r + d_rp))
            out.append((ang.alpha, eta[:, 0], TargetState(ang.alpha, ang.xi, sb, db)))
        return out

    def test_components_are_sums_over_targets(self, model, geom, ula, panel, code, harmonics,
                                              pilots):
        bundle = synthesize_echo(self.SCENE, model, fadings=self.FADINGS, keep_components=True)
        targets = self.per_target(geom, ula, panel, code, harmonics)
        x, a0 = pilots.symbols, steering_vector(ula, 0.0)
        assert targets[1][2].sb_gain == 0 and targets[1][2].db_gain == 0
        for i, m in enumerate(harmonics.members):
            comp = bundle.components[m]
            c2 = sum(g.sb_gain * sb_regressor(alpha, ula, pilots) for alpha, _, g in targets)
            c3 = sum(g.db_gain * eta[i] * vec(np.outer(steering_vector(ula, alpha), a0) @ x)
                     for alpha, eta, g in targets)
            c4 = sum(g.db_gain * eta[i] * vec(np.outer(a0, steering_vector(ula, alpha)) @ x)
                     for alpha, eta, g in targets)
            db = sum(g.db_gain * db_regressor(alpha, eta, ula, pilots) for alpha, eta, g in targets)
            if m == 0:
                assert_close(vec(comp["c2"]), c2)
            else:
                assert not comp["c2"].any()
            assert_close(vec(comp["c3"]), c3)
            assert_close(vec(comp["c4"]), c4)
            assert_close(vec(comp["c3"] + comp["c4"]), db[i * 256:(i + 1) * 256])

    def test_stacks_are_sums_over_targets(self, model, geom, ula, panel, code, harmonics, pilots):
        targets = self.per_target(geom, ula, panel, code, harmonics)
        y, regs, gains = stack("sb", self.SCENE, model, fadings=self.FADINGS)
        oracle = [sb_regressor(alpha, ula, pilots) for alpha, _, _ in targets]
        for r in range(3):
            assert_close(regs[r], oracle[r])
        assert_close(gains, [g.sb_gain for _, _, g in targets])
        assert_close(y, sum(g * h for g, h in zip(gains, oracle)))
        y, regs, gains = stack("db", self.SCENE, model, fadings=self.FADINGS)
        oracle = [db_regressor(alpha, eta, ula, pilots) for alpha, eta, _ in targets]
        for r in range(3):
            assert_close(regs[r], oracle[r])
        assert_close(gains, [g.db_gain for _, _, g in targets])
        assert_close(y, sum(g * h for g, h in zip(gains, oracle)))

    def test_noise_drawn_per_harmonic_in_member_order(self, model, harmonics):
        bundle = synthesize_echo(self.SCENE, model, rng=stream_rng(9, 4), fadings=self.FADINGS,
                                 keep_components=True)
        rng = stream_rng(9, 4)
        for m in harmonics.members:
            comp = bundle.components[m]
            assert np.array_equal(comp["noise"], complex_normal(rng, NOISE_POWER, (16, 16)))
            signal = comp["c1"] + comp["c2"] + comp["c3"] + comp["c4"]
            assert_close(bundle.harmonic(m), signal + comp["noise"])


class TestEchoReadsTheModel:
    """The echo and its stacks carry the gains the maps bound: those of
    ``_target_state`` at the model's path-loss exponent and carrier."""

    POINTS = st.lists(st.tuples(st.floats(-79.0, 79.0), st.floats(1.0, 99.0),
                                st.floats(0.1, 10.0),
                                st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)),
                      min_size=1, max_size=3)

    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(iota=st.floats(1.0, 4.0, exclude_min=True), carrier=st.floats(1e9, 3e10),
           points=POINTS)
    def test_gains_are_the_target_state(self, iota, carrier, points):
        model = build_model(merge_config({"path_loss_exponent": iota, "carrier_hz": carrier}))
        scene = [ScatterPoint(position=[x, 0.0, z], rcs_sqrt=r) for x, z, r, _ in points]
        fadings = [nu for *_, nu in points]
        q = np.array([p.position for p in scene])
        want = _target_state(q, model, np.array([p.rcs_sqrt for p in scene]) * fadings)
        _, sb_regs, sb = stack("sb", scene, model, fadings=fadings)
        _, _, db = stack("db", scene, model, fadings=fadings)
        assert sb.tobytes() == want.sb_gain.tobytes()
        assert db.tobytes() == want.db_gain.tobytes()

        bundle = synthesize_echo(scene, model, fadings=fadings, keep_components=True)
        x, harmonics = model.pilots.symbols, model.harmonics
        a_r = steering_vector(model.ula, want.alpha).T
        a_s = np.ones_like(a_r)
        eta, _ = harmonic_pattern_batch(model.panel, model.code, harmonics,
                                        np.append(want.xi, 0.0), 0.0, model.mode)
        b = eta[:, :-1] * want.db_gain
        c3, c4 = b @ vec_outer(a_r, a_s, x), b @ vec_outer(a_s, a_r, x)
        lam, d_s = model.wavelength, model.geom.d_s
        g_c1 = lam / (4 * np.pi * (2 * d_s) ** iota) * np.exp(-2j * np.pi * 2 * d_s / lam)
        for i, m in enumerate(harmonics.members):
            comp = bundle.components[m]
            assert vec(comp["c2"]).tobytes() == (want.sb_gain @ sb_regs if m == 0
                                                 else np.zeros(x.size, complex)).tobytes()
            assert vec(comp["c3"]).tobytes() == c3[i].tobytes()
            assert vec(comp["c4"]).tobytes() == c4[i].tobytes()
            # c1 carries G(2 d_S) at the model's exponent: a(0) is all ones
            assert_close(comp["c1"], g_c1 * eta[i, -1] * np.ones((x.shape[0],) * 2) @ x)
