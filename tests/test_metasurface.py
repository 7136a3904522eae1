import numpy as np
import pytest

from stcmsense.metasurface import (
    CodingMatrix,
    CodingScheme,
    HarmonicSet,
    PanelLayout,
    RisProfile,
    WavelengthMode,
    _ris_terms,
    default_coding_matrix,
    fourier_coefficients,
    harmonic_pattern,
    harmonic_pattern_batch,
    harmonic_pattern_derivative,
)

from pattern_oracle import direct_coefficient, direct_pattern


def single_row_code(row):
    return CodingMatrix(entries=np.array([row], dtype=float), scheme=CodingScheme.PM)


class TestFourierCoefficient:
    def test_balanced_row_dc_is_zero(self):
        code = single_row_code([1, 1, 1, 1, -1, -1, -1, -1])
        assert fourier_coefficients(code, 0)[0] == 0

    def test_all_ones_row_dc_is_one(self):
        code = single_row_code([1] * 8)
        assert fourier_coefficients(code, 0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_square_row_first_harmonic_direct_sum(self):
        row = [1, 1, 1, 1, -1, -1, -1, -1]
        code = single_row_code(row)
        # oracle frozen from the direct sum: -2j/pi
        assert fourier_coefficients(code, 1)[0] == pytest.approx(-0.6366197723675814j, abs=1e-14)
        assert fourier_coefficients(code, 1)[0] == pytest.approx(direct_coefficient(row, 1, 8), abs=1e-14)

    def test_against_dense_fft(self):
        # cross-check the series against an FFT of the staircase waveform;
        # the midpoint-sampled FFT carries O(m/n) discretization error of its
        # own, so the agreement tolerance is the oracle's, not the series'
        row = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=float)
        code = single_row_code(row)
        n = 65536
        t = (np.arange(n) + 0.5) / n
        wave = row[(t * 8).astype(int)]
        c = np.fft.fft(wave) / n
        for m in range(0, 6):
            assert fourier_coefficients(code, m)[0] == pytest.approx(c[m], abs=3e-4)

    def test_cyclic_shift_phase_rule(self):
        # oracle: shifting a row by s slots multiplies a^m by exp(-2j pi m s / L)
        rng = np.random.default_rng(5)
        row = rng.choice([-1.0, 1.0], size=8)
        base = single_row_code(row)
        for s in range(8):
            shifted = single_row_code(np.roll(row, s))
            for m in (0, 1, 2, 3, 5):
                expect = fourier_coefficients(base, m)[0] * np.exp(-2j * np.pi * m * s / 8)
                assert fourier_coefficients(shifted, m)[0] == pytest.approx(expect, abs=1e-14)

    def test_negative_order_is_conjugate(self, code):
        for m in (1, 2, 3, 4, 5):
            a_p = fourier_coefficients(code, m)
            a_m = fourier_coefficients(code, -m)
            assert np.allclose(a_m, np.conj(a_p), atol=1e-15)

    def test_parseval_partial_sums(self, code):
        # any PM waveform has unit power; truncated coefficient energy is
        # below 1 at every order and above 0.99 once |m| reaches 64 for the
        # low-transition default rows
        energies = np.zeros(code.entries.shape[0])
        for bound in (4, 16, 64):
            table = np.stack([fourier_coefficients(code, m) for m in range(-bound, bound + 1)])
            energies = np.sum(np.abs(table) ** 2, axis=0)
            assert np.all(energies <= 1.0 + 1e-12)
        assert np.all(energies >= 0.99)


class TestHarmonicPattern:
    def test_single_element_panel_is_coefficient(self):
        panel1 = PanelLayout(n_x=1, n_y=1, spacing=0.015, carrier_hz=1e10)
        code = single_row_code([1, 1, -1, 1, -1, -1, 1, -1])
        for m in (0, 1, 3):
            a = fourier_coefficients(code, m)[0]
            for phi_d, phi_a in ((0.0, 0.0), (0.4, -0.2), (1.1, 0.7)):
                assert harmonic_pattern(panel1, code, m, phi_d, phi_a) == pytest.approx(a, abs=1e-14)

    def test_swap_symmetry(self, panel, code):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d, a = rng.uniform(-1.4, 1.4, size=2)
            m = int(rng.integers(-4, 5))
            assert harmonic_pattern(panel, code, m, d, a) == pytest.approx(
                harmonic_pattern(panel, code, m, a, d), rel=1e-12, abs=1e-15
            )

    def test_brute_force_double_loop(self, panel, code):
        # independent oracle: explicit per-element loop over the grid
        for m, phi_d, phi_a in ((1, 0.0, 0.0), (-2, 0.6, -0.3)):
            acc, _ = direct_pattern(panel, code, m, phi_d, phi_a)
            assert harmonic_pattern(panel, code, m, phi_d, phi_a) == pytest.approx(acc, rel=1e-12)

    def test_periodicity_in_angle(self, panel, code):
        val = harmonic_pattern(panel, code, 2, 0.3, 0.1)
        assert harmonic_pattern(panel, code, 2, 0.3 + 2 * np.pi, 0.1) == pytest.approx(val, rel=1e-12)

    def test_carrier_mode_matches_exact_at_m0(self, panel, code):
        h = HarmonicSet(0)
        e1, d1 = harmonic_pattern_batch(panel, code, h, 0.5, 0.0, WavelengthMode.EXACT)
        e2, d2 = harmonic_pattern_batch(panel, code, h, 0.5, 0.0, WavelengthMode.CARRIER)
        assert e1 == pytest.approx(e2, rel=1e-15)
        assert d1 == pytest.approx(d2, rel=1e-15)

    def test_batch_agrees_with_scalar(self, panel, code, harmonics):
        # oracle: the explicit per-element sum; the scalar calls are the
        # batch's one-angle case and agree with its columns.  Entries that
        # cancel to zero across the 64 elements (order-one terms) carry a
        # summation-order residue of a few eps, hence the absolute floor.
        xi = np.array([-0.7, 0.0, 0.9])
        eta, deta = harmonic_pattern_batch(panel, code, harmonics, xi)
        for i, m in enumerate(harmonics.members):
            for j, x in enumerate(xi):
                e_ref, d_ref = direct_pattern(panel, code, m, x)
                assert eta[i, j] == pytest.approx(e_ref, rel=1e-12, abs=1e-13)
                assert deta[i, j] == pytest.approx(d_ref, rel=1e-12, abs=1e-13)
                assert harmonic_pattern(panel, code, m, x, 0.0) == pytest.approx(eta[i, j], rel=1e-15)
                assert harmonic_pattern_derivative(panel, code, m, x) == pytest.approx(
                    deta[i, j], rel=1e-15
                )

    @pytest.mark.parametrize("scheme", [CodingScheme.PM, CodingScheme.AM])
    def test_codes_that_vary_down_a_column(self, scheme):
        # the default code repeats each column's sequence down its rows, so
        # a collapse over the wrong grid axis would pass every test above;
        # here the rows of each column differ on an n_x != n_y panel
        panel = PanelLayout.half_wavelength(5, 3)
        alphabet = [-1.0, 1.0] if scheme is CodingScheme.PM else [0.0, 1.0]
        entries = np.random.default_rng(11).choice(alphabet, size=(15, 8))
        assert all(len(np.unique(entries[3 * p:3 * p + 3], axis=0)) == 3 for p in range(5))
        code = CodingMatrix(entries=entries, scheme=scheme)
        xi, phi = np.array([-1.1, -0.2, 0.45, 1.3]), 0.3
        eta, deta = harmonic_pattern_batch(panel, code, HarmonicSet(3), xi, phi)
        for i, m in enumerate(range(-3, 4)):
            for j, x in enumerate(xi):
                e_ref, d_ref = direct_pattern(panel, code, m, x, phi)
                assert eta[i, j] == pytest.approx(e_ref, rel=1e-12)
                assert deta[i, j] == pytest.approx(d_ref, rel=1e-12)
                assert harmonic_pattern(panel, code, m, x, phi) == pytest.approx(e_ref, rel=1e-12)
                assert harmonic_pattern_derivative(panel, code, m, x, phi) == pytest.approx(
                    d_ref, rel=1e-12
                )


class TestPatternDerivative:
    def test_matches_finite_differences(self, panel, code):
        rng = np.random.default_rng(9)
        h = 1e-7
        worst = 0.0
        for _ in range(200):
            xi = rng.uniform(-1.4, 1.4)
            m = int(rng.integers(-5, 6))
            an = harmonic_pattern_derivative(panel, code, m, xi)
            fd = (harmonic_pattern(panel, code, m, xi + h, 0.0)
                  - harmonic_pattern(panel, code, m, xi - h, 0.0)) / (2 * h)
            if abs(fd) > 1e-9:
                worst = max(worst, abs(an - fd) / abs(fd))
        assert worst < 1e-6

    def test_single_element_derivative_vanishes(self):
        panel1 = PanelLayout(n_x=1, n_y=1, spacing=0.015, carrier_hz=1e10)
        code = single_row_code([1, -1, 1, -1, 1, 1, -1, -1])
        assert harmonic_pattern_derivative(panel1, code, 1, 0.7) == 0

    def test_swap_side_derivative_equal(self, panel, code):
        # d/dxi eta(xi, 0) equals d/dxi eta(0, xi) by the swap symmetry
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = rng.uniform(-1.2, 1.2)
            h = 1e-7
            d_first = harmonic_pattern_derivative(panel, code, 2, xi)
            fd_second = (harmonic_pattern(panel, code, 2, 0.0, xi + h)
                         - harmonic_pattern(panel, code, 2, 0.0, xi - h)) / (2 * h)
            assert d_first == pytest.approx(fd_second, rel=1e-6)


class TestDefaultCode:
    def test_shape_and_alphabet(self, panel, code):
        assert code.entries.shape == (64, 8)
        assert set(np.unique(code.entries)) == {-1.0, 1.0}

    def test_deterministic(self, panel):
        c1 = default_coding_matrix(panel)
        c2 = default_coding_matrix(panel)
        assert np.array_equal(c1.entries, c2.entries)

    def test_rows_share_column_sequence(self, panel, code):
        block = code.entries.reshape(8, 8, 8)  # (column, row, slot)
        for p in range(8):
            assert np.all(block[p] == block[p][0])

    def test_dc_magnitude_quarter(self, code):
        # duty-5/8 rows: |a^0| = |5 - 3|/8 exactly; balance was traded for
        # populated even harmonics (see the design note in the module)
        assert np.allclose(np.abs(fourier_coefficients(code, 0)), 0.25, atol=1e-15)

    def test_all_informative_harmonics_populated(self, code):
        for m in range(1, 6):
            assert np.min(np.abs(fourier_coefficients(code, m))) > 0.04

    def test_sinc_envelope_attenuation(self, code):
        # coefficient magnitudes sit below the sinc envelope, which decays
        # monotonically over 0 <= m <= L/2
        L = 8
        env = [1.0] + [abs(np.sin(np.pi * m / L) / (np.pi * m / L)) for m in range(1, 9)]
        for m in range(0, 9):
            assert np.max(np.abs(fourier_coefficients(code, m))) <= env[m] + 1e-12
        assert all(env[m] >= env[m + 1] for m in range(0, 4))

    def test_balanced_code_dc_zero_exact(self):
        # balanced codes have exactly zero carrier coefficient
        rows = np.array([np.roll([1, 1, 1, 1, -1, -1, -1, -1], s) for s in range(8)], dtype=float)
        code = CodingMatrix(entries=rows, scheme=CodingScheme.PM)
        assert np.all(fourier_coefficients(code, 0) == 0)


class TestRisResponse:
    """The fixed-profile response a_R(xi)^T diag(w) a_R(phi) and its xi
    derivative, from :func:`_ris_terms`."""

    def test_all_ones_boresight_is_element_count(self, panel):
        prof = RisProfile(np.ones(64, dtype=complex))
        assert _ris_terms(prof, panel, 0.0, 0.0)[0] == pytest.approx(64.0, rel=1e-14)

    def test_modulus_bound(self, panel):
        rng = np.random.default_rng(21)
        for _ in range(50):
            prof = RisProfile(np.exp(2j * np.pi * rng.uniform(size=64)))
            d, a = rng.uniform(-1.5, 1.5, size=2)
            assert abs(_ris_terms(prof, panel, d, a)[0]) <= 64.0 + 1e-9

    def test_brute_force_elementwise(self, panel):
        rng = np.random.default_rng(33)
        prof = RisProfile(np.exp(2j * np.pi * rng.uniform(size=64)))
        d, a = 0.41, -0.73
        lam = panel.wavelength
        pos = panel.element_positions()
        acc = 0j
        for n in range(64):
            ph = (2 * np.pi / lam) * (np.sin(d) + np.sin(a)) * pos[n, 0]
            acc += prof.phases[n] * np.exp(1j * ph)
        assert _ris_terms(prof, panel, d, a)[0] == pytest.approx(acc, rel=1e-12)

    def test_derivative_matches_fd(self, panel):
        rng = np.random.default_rng(41)
        prof = RisProfile(np.exp(2j * np.pi * rng.uniform(size=64)))
        h = 1e-7
        for xi in (-0.9, 0.1, 0.8):
            fd = (_ris_terms(prof, panel, xi + h, 0.0)[0] - _ris_terms(prof, panel, xi - h, 0.0)[0]) / (2 * h)
            assert _ris_terms(prof, panel, xi, 0.0)[1] == pytest.approx(fd, rel=1e-6)


def test_coding_matrix_alphabet_validation():
    with pytest.raises(ValueError):
        CodingMatrix(entries=np.array([[1.0, 0.5]]), scheme=CodingScheme.PM)
    with pytest.raises(ValueError):
        CodingMatrix(entries=np.array([[-1.0, 1.0]]), scheme=CodingScheme.AM)
    CodingMatrix(entries=np.array([[0.0, 1.0]]), scheme=CodingScheme.AM)


@pytest.mark.parametrize("scheme", list(CodingScheme))
def test_coding_matrix_rejects_nan(scheme):
    with pytest.raises(ValueError):
        CodingMatrix(entries=np.array([[1.0, np.nan]]), scheme=scheme)


def test_am_scheme_coefficients():
    # on/off keying: the DC term is the duty cycle and the series matches
    # the direct sum like any other waveform
    row = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    code = CodingMatrix(entries=row[None, :], scheme=CodingScheme.AM)
    assert fourier_coefficients(code, 0)[0] == pytest.approx(0.5, abs=1e-15)
    for m in (1, 2, 3):
        assert fourier_coefficients(code, m)[0] == pytest.approx(
            direct_coefficient(row, m, 8), abs=1e-14
        )
