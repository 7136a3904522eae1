import tracemalloc

import numpy as np
import pytest
from scipy.stats import ncx2

from stcmsense import detection
from stcmsense.channel import PilotMatrix
from stcmsense.config import build_model, merge_config
from stcmsense.detection import (
    Combiner,
    despread_regressor_at_angle,
    detection_map,
    effective_energy_cells,
    marcum_q1,
    ml_beta_estimate,
    pd_marginal,
    pd_marginal_cells,
    threshold_from_pfa,
)
from stcmsense.classification import rayleigh_scale
from stcmsense.errors import OutOfRange, ZeroRegressor
from stcmsense.experiments import run_detection_map
from stcmsense.geometry import angles_from_position
from stcmsense.rng import stream_rng

NOISE = 1e-15


class TestDespread:
    def test_boresight_all_ones_columns_constant(self, geom, ula, pilots):
        alpha = angles_from_position([0.0, 0.0, 30.0], geom).alpha
        reg = despread_regressor_at_angle(alpha, ula, pilots, Combiner.ALL_ONES)
        mat = np.reshape(reg.vector, (16, 16), order="F")
        assert np.allclose(mat, mat[0:1, :], atol=1e-18)

    def test_positive_energy(self, geom, ula, pilots):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = [rng.uniform(-70, 70), 0.0, rng.uniform(5, 95)]
            for comb in Combiner:
                alpha = angles_from_position(q, geom).alpha
                reg = despread_regressor_at_angle(alpha, ula, pilots, comb)
                assert np.vdot(reg.vector, reg.vector).real > 0
                assert reg.effective_norm_sq > 0

    def test_matched_effective_energy_closed_value(self, ula, pilots):
        # orthogonal block: effective energy M * total_power at every angle
        for alpha in (-0.9, 0.0, 0.4, 1.2):
            reg = despread_regressor_at_angle(alpha, ula, pilots, Combiner.MATCHED_DESPREAD)
            assert reg.effective_norm_sq == pytest.approx(16 * pilots.total_power, rel=1e-10)

    def test_matched_beats_all_ones_off_boresight(self, ula, pilots):
        for alpha in (-1.1, -0.35, 0.2, 0.8):
            m = despread_regressor_at_angle(alpha, ula, pilots, Combiner.MATCHED_DESPREAD)
            n = despread_regressor_at_angle(alpha, ula, pilots, Combiner.ALL_ONES)
            assert m.effective_norm_sq > n.effective_norm_sq

    def test_all_ones_equals_matched_at_boresight(self, ula, pilots):
        m = despread_regressor_at_angle(0.0, ula, pilots, Combiner.MATCHED_DESPREAD)
        n = despread_regressor_at_angle(0.0, ula, pilots, Combiner.ALL_ONES)
        assert n.effective_norm_sq == pytest.approx(m.effective_norm_sq, rel=1e-10)


class TestMlEstimate:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        beta = 0.3 - 0.8j
        assert ml_beta_estimate(beta * h, h) == pytest.approx(beta, rel=1e-14)

    def test_orthogonal_observation_gives_zero(self):
        h = np.array([1.0, 1j, 0.0])
        y = np.array([0.0, 0.0, 5.0])
        assert ml_beta_estimate(y, h) == 0

    def test_zero_regressor_raises(self):
        with pytest.raises(ZeroRegressor):
            ml_beta_estimate(np.ones(3), np.zeros(3))

    def test_variance_matches_model(self):
        # white-noise contract: var(beta_hat) = noise / ||H||^2 within 2%
        rng = stream_rng(42, 0)
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        nsq = np.real(np.vdot(h, h))
        n_draws = 100_000
        noise = np.sqrt(NOISE / 2) * (
            rng.standard_normal((n_draws, 64)) + 1j * rng.standard_normal((n_draws, 64))
        )
        est = noise @ np.conj(h) / nsq
        assert np.var(est) == pytest.approx(NOISE / nsq, rel=0.02)


class TestThreshold:
    def test_exact_inverse_point(self):
        assert threshold_from_pfa(np.exp(-0.5)) == pytest.approx(1.0, rel=1e-15)

    def test_reference_false_alarm(self):
        # oracle: 8 ln 10
        assert threshold_from_pfa(1e-4) == pytest.approx(18.420680743952364, rel=1e-15)

    def test_roundtrip(self):
        for p in (1e-6, 1e-4, 0.05, 0.5):
            assert np.exp(-threshold_from_pfa(p) / 2) == pytest.approx(p, rel=1e-14)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(OutOfRange):
                threshold_from_pfa(bad)


class TestMarcumQ:
    def test_boundary_identities(self):
        assert marcum_q1(3.7, 0.0) == 1.0
        for b in (0.3, 1.0, 2.5, 6.0):
            assert marcum_q1(0.0, b) == pytest.approx(np.exp(-b * b / 2), rel=1e-13)

    def test_against_scipy_reference(self):
        # frozen from scipy.stats.ncx2.sf(b^2, 2, a^2)
        cases = {
            (0.5, 1.0): 0.6427142302725437,
            (2.0, 1.0): 0.9181076963694061,
            (1.0, 3.0): 0.04371597157863567,
            (4.0, 4.0): 0.550272063680626,
            (10.0, 9.0): 0.8537790056770282,
            (0.1, 6.0): 1.6628303966495244e-08,
            (30.0, 28.0): 0.9781653718649269,
        }
        for (a, b), ref in cases.items():
            assert marcum_q1(a, b) == pytest.approx(ref, abs=1e-12)

    def test_dense_scipy_grid(self):
        aa = np.linspace(0.0, 12.0, 31)
        bb = np.linspace(0.05, 12.0, 31)
        worst = 0.0
        for a in aa:
            for b in bb:
                ref = float(ncx2.sf(b * b, 2, a * a))
                worst = max(worst, abs(marcum_q1(a, b) - ref))
        assert worst < 1e-12

    def test_monotone_in_noncentrality(self):
        vals = [marcum_q1(a, 2.0) for a in np.linspace(0, 8, 60)]
        assert all(v2 >= v1 - 1e-13 for v1, v2 in zip(vals, vals[1:]))

    def test_extreme_arguments(self):
        assert marcum_q1(100.0, 3.0) == 1.0
        assert marcum_q1(1.0, 100.0) == 0.0
        assert marcum_q1(300.0, 299.0) == pytest.approx(
            float(ncx2.sf(299.0**2, 2, 300.0**2)), abs=1e-10
        )

    def test_underflowing_squares(self):
        # b^2/2 underflows to 0, where Q1 = 1
        assert marcum_q1(1.0, 1e-170) == 1.0
        assert marcum_q1(1.0, 5e-324) == 1.0

    def test_out_of_range_arguments_raise(self):
        # non-finite or negative, and squares past 2^52 with no shortcut
        for a, b in ((np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf), (np.inf, 1.0),
                     (1e200, 1e200), (1.5e8, 1.5e8 - 1.0)):
            with pytest.raises(OutOfRange):
                marcum_q1(a, b)
        with pytest.raises(OutOfRange):
            marcum_q1([1.0, -1.0], 1.0)
        # huge but separated arguments take the |a - b| >= 16 shortcut
        assert marcum_q1(1e200, 3.0) == 1.0
        assert marcum_q1(3.0, 1e200) == 0.0

    def test_array_matches_scalar_calls_bitwise(self):
        # zero and underflowing squares, |a - b| >= 16 both ways, small,
        # moderate and large windows, a on both sides of b
        vals = np.array([0.0, 1e-170, 1e-3, 0.4, 2.0, 7.5, 20.0, 45.0, 300.0, 301.5])
        q = marcum_q1(vals[:, None], vals[None, :])
        scalar = np.array([[marcum_q1(a, b) for b in vals] for a in vals])
        assert q.shape == (10, 10)
        assert q.tobytes() == scalar.tobytes()

    def test_broadcasting_and_scalar_type(self):
        q = marcum_q1(np.array([[0.5], [4.0]]), np.array([1.0, 3.0, 4.0]))
        assert q.shape == (2, 3)
        assert q[1, 2] == marcum_q1(4.0, 4.0)
        assert type(marcum_q1(4.0, 4.0)) is float
        assert type(marcum_q1(np.float64(4.0), 0.0)) is float

    def test_large_arguments_against_scipy(self):
        for a, b in ((1000.0, 999.0), (3000.0, 2995.0)):
            assert marcum_q1(a, b) == pytest.approx(float(ncx2.sf(b * b, 2, a * a)), abs=1e-12)

    def test_high_precision_reference_at_huge_arguments(self):
        # Q1 as the integral of x exp(-(x^2 + a^2)/2) I0(a x) over x > b at
        # 30 digits, a reference independent of the Poisson window
        mp = pytest.importorskip("mpmath")

        def ref(a, b):
            with mp.workdps(30):
                a, b = mp.mpf(a), mp.mpf(b)
                knots = [p for p in (a - 40, a - 10, a, a + 10, a + 40) if p > b]
                return float(mp.quad(lambda x: x * mp.exp(-(x * x + a * a) / 2) * mp.besseli(0, a * x),
                                     [b] + knots + [mp.inf]))

        for a, b in ((1e4, 1e4 - 3), (1e5, 1e5 - 3), (1e5 - 3, 1e5)):
            assert marcum_q1(a, b) == pytest.approx(ref(a, b), abs=1e-12)

    def test_bounded_memory_and_window_at_huge_arguments(self, monkeypatch):
        # each pass evaluates at most one chunk, and the passes together
        # cover about the window, 2 (12 sqrt(max) + 40) + |a^2 - b^2|/2
        # integers (about 2.0e6 here); tracemalloc bounds what is held
        a, b = 1e5, 1e5 - 3
        sizes = []
        log_pmf = detection._log_pois_pmf

        def counted(n, mu):
            sizes.append(len(n))
            return log_pmf(n, mu)

        monkeypatch.setattr(detection, "_log_pois_pmf", counted)
        q = marcum_q1(a, b)
        assert max(sizes) <= 4096 and sum(sizes) < 2 * 2.2e6
        monkeypatch.undo()
        tracemalloc.start()
        try:
            assert marcum_q1(a, b) == q
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert 0.5 < q < 1.0


class TestPdConditional:
    # p_D given the gain draw is Q1(sqrt(mu), sqrt(gamma_th)) with the
    # noncentrality mu = 2 h2 |beta|^2 / sigma_n^2
    def test_zero_gain_reduces_to_false_alarm(self):
        g = threshold_from_pfa(1e-4)
        assert marcum_q1(0.0, np.sqrt(g)) == pytest.approx(1e-4, rel=1e-12)

    def test_limit_to_one(self):
        g = threshold_from_pfa(1e-4)
        assert marcum_q1(np.sqrt(2 * 1e6 / 1e-9), np.sqrt(g)) == 1.0

    def test_against_noncentral_chi2_monte_carlo(self):
        # empirical tail of the exact statistic within 3 binomial sigmas
        rng = stream_rng(7, 1)
        h_sq, gamma_th = 2.5, 9.0
        for beta_mag in (0.4, 1.0, 1.8):
            mu = 2 * h_sq * beta_mag**2 / 1.0
            n = 1_000_000
            draws = ncx2.rvs(2, mu, size=n, random_state=np.random.RandomState(3))
            emp = np.mean(draws > gamma_th)
            p = marcum_q1(np.sqrt(mu), np.sqrt(gamma_th))
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(emp - p) < 3 * sigma + 1e-9


class TestPdMarginal:
    def test_zero_scale_is_false_alarm_exactly(self):
        g = threshold_from_pfa(1e-4)
        assert pd_marginal(0.0, 123.0, NOISE, g) == np.exp(-g / 2)

    def test_large_scale_saturates(self):
        g = threshold_from_pfa(1e-4)
        assert pd_marginal(1e9, 1.0, NOISE, g) > 1 - 1e-9

    def test_monotonicities(self):
        g4 = threshold_from_pfa(1e-4)
        g2 = threshold_from_pfa(1e-2)
        base = pd_marginal(1e-7, 1.0, NOISE, g4)
        assert pd_marginal(2e-7, 1.0, NOISE, g4) >= base
        assert pd_marginal(1e-7, 2.0, NOISE, g4) >= base
        assert pd_marginal(1e-7, 1.0, NOISE, g2) >= base
        assert pd_marginal(1e-7, 1.0, 2 * NOISE, g4) <= base

    def test_monte_carlo_marginalization(self, geom, ula, pilots):
        # draw |beta| ~ Rayleigh(scale), add estimator noise, threshold the
        # exact statistic; closed form must match within +-0.01
        gamma_th = threshold_from_pfa(1e-4)
        rng = stream_rng(11, 0)
        n = 100_000
        reg = despread_regressor_at_angle(0.3, ula, pilots, Combiner.MATCHED_DESPREAD)
        h2 = reg.effective_norm_sq
        for sigma_r, d in ((10 ** (1 / 20), 40.0), (10 ** (17 / 20), 160.0)):
            scale = rayleigh_scale(sigma_r, 2 * d)
            beta = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            est_noise = np.sqrt(NOISE / h2 / 2) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            stat = 2 * h2 * np.abs(beta + est_noise) ** 2 / NOISE
            emp = np.mean(stat > gamma_th)
            assert abs(emp - pd_marginal(scale, h2, NOISE, gamma_th)) < 0.01


@pytest.fixture(scope="module")
def maps(geom, ula, pilots):
    xs = np.arange(-72.0, 73.0, 16.0)
    zs = np.arange(4.0, 101.0, 16.0)
    pts = [np.array([x, 0.0, z]) for z in zs for x in xs]
    scales = {
        "human_like": lambda d: rayleigh_scale(10 ** (1 / 20), d),
        "object_like": lambda d: rayleigh_scale(10 ** (17 / 20), d),
    }
    return detection_map(pts, geom, ula, pilots, NOISE, 1e-4, scales)


class TestDetectionMap:
    def test_object_dominates_human(self, maps):
        for comb in Combiner:
            assert np.all(maps[("object_like", comb)] >= maps[("human_like", comb)])

    def test_matched_dominates_all_ones(self, maps):
        for label in ("human_like", "object_like"):
            assert np.all(
                maps[(label, Combiner.MATCHED_DESPREAD)] >= maps[(label, Combiner.ALL_ONES)] - 1e-12
            )

    def test_floor_is_false_alarm(self, maps):
        for key, pd in maps.items():
            assert np.all(pd >= 1e-4 - 1e-12)
            assert np.all(pd <= 1.0)

    def test_terminal_cells_masked(self, geom, ula, pilots):
        # the BS and panel phase centers have no bearing: NaN, not an error
        pts = [np.array([x, 0.0, z]) for z in (0.0, 50.0, 100.0) for x in (-20.0, 0.0, 20.0)]
        scales = {"object_like": lambda d: rayleigh_scale(10 ** (17 / 20), d)}
        out = detection_map(pts, geom, ula, pilots, NOISE, 1e-4, scales)
        assert len(out) == 2
        terminal = [i for i, q in enumerate(pts) if q[0] == 0.0 and q[2] in (0.0, 100.0)]
        assert terminal == [1, 7]
        for pd in out.values():
            assert np.all(np.isnan(pd[terminal]))
            rest = np.delete(pd, terminal)
            assert np.all((rest >= 1e-4 - 1e-12) & (rest <= 1.0))


# --- the array-valued map against an explicit per-cell oracle -------------
#
# The oracle writes out H = vec(Z a a^T X), the noise-referred energy
# ||H||^4 / (H^H (I kron Z Z^H) H) and the marginal p_D exponential from
# their definitions, one cell at a time; it never calls the package's
# detection or scale code.

ORACLE_CFG = {"grid_res_m": 10.0}
PD_REL_TOL = 1e-12


def oracle_energy(alpha, model, comb):
    m = model.ula.m_antennas
    xs = (np.arange(m) - (m - 1) / 2.0) * model.ula.spacing
    a = np.exp(1j * (2 * np.pi / model.wavelength) * xs * np.sin(alpha))
    x = model.pilots.symbols
    z = np.ones((m, m)) if comb is Combiner.ALL_ONES else x.conj().T
    h = (z @ np.outer(a, a) @ x).ravel(order="F")
    energy = np.vdot(h, h).real
    colored = np.vdot(h, np.kron(np.eye(x.shape[1]), z @ z.conj().T) @ h).real
    return energy**2 / colored if colored > 0 else 0.0


def oracle_pd(x, z, model, label, comb):
    """p_D at the cell (x, 0, z), or None where the cell has no bearing."""
    bs, panel = model.geom.bs_center, model.geom.stcm_center
    d_r = np.hypot(x - bs[0], z - bs[2])
    if d_r < 1e-9 or np.hypot(x - panel[0], z - panel[2]) < 1e-9:
        return None
    sigma = dict(zip(("human_like", "object_like"), model.hypotheses.rcs_sqrts[1:]))[label]
    lam = model.wavelength
    scale = (lam / (4 * np.pi * (2 * d_r) ** model.iota) * sigma * model.sigma_nu
             * np.sqrt(2 / np.pi))
    h2 = oracle_energy(np.arctan2(x - bs[0], z - bs[2]), model, comb)
    noise, gamma_th = model.noise_power, -2 * np.log(model.p_fa)
    return float(np.exp(-gamma_th * noise / (4 * h2 * scale**2 + 2 * noise)))


def assert_pd_matches(got, x, z, model, label, comb):
    ref = oracle_pd(x, z, model, label, comb)
    assert (got is None) == (ref is None), (x, z)
    if ref is not None:
        assert abs(got - ref) <= PD_REL_TOL * ref, (x, z, got, ref)


KEYS = [(label, comb) for comb in Combiner for label in ("human_like", "object_like")]


@pytest.mark.parametrize("label,comb", KEYS, ids=[f"{l}-{c.value}" for l, c in KEYS])
def test_detection_csv_matches_oracle(tmp_path, label, comb):
    # the 10 m lattice holds the BS centre, the panel centre and the x = 0 axis
    cfg = merge_config(ORACLE_CFG)
    model = build_model(cfg)
    run_detection_map(cfg, str(tmp_path))
    with open(tmp_path / f"detect_map_{label}_{comb.value}.csv") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    cells = set()
    for r in rows:
        x, z = float(r[0]), float(r[1])
        cells.add((x, z))
        assert (r[5] == "true") == (r[2] == "")
        assert_pd_matches(None if r[2] == "" else float(r[2]), x, z, model, label, comb)
    assert {(0.0, 0.0), (0.0, 100.0), (0.0, 50.0)} <= cells


@pytest.mark.parametrize("label,comb", KEYS, ids=[f"{l}-{c.value}" for l, c in KEYS])
def test_detection_map_near_all_ones_nulls(label, comb):
    # sin(alpha) = 2k/M puts the all-ones combiner on a null: Z a ~ 0
    model = build_model(merge_config({}))
    m = model.ula.m_antennas
    sines = np.array([2.0 * k / m for k in range(-m // 2, m // 2 + 1)])
    pts = np.array([[r * s, 0.0, r * np.sqrt(1 - s * s)] for r in (12.0, 37.0) for s in sines])
    scales = {lab: (lambda d, s=s: rayleigh_scale(s, d, model.sigma_nu,
                                                  wavelength=model.wavelength, iota=model.iota))
              for lab, s in zip(("human_like", "object_like"), model.hypotheses.rcs_sqrts[1:])}
    pd = detection_map(pts, model.geom, model.ula, model.pilots, model.noise_power,
                       model.p_fa, scales, combiners=(comb,))[(label, comb)]
    for q, p in zip(pts, pd):
        assert_pd_matches(float(p), q[0], q[2], model, label, comb)


def test_zero_combined_energy_gives_false_alarm(ula):
    # Z a = 0 at every bearing (all-zero pilots): h2 = 0 and p_D = p_FA,
    # with no 0/0 on the way
    zero = PilotMatrix(symbols=np.zeros((16, 16)), total_power=0.0)
    alphas = np.linspace(-1.2, 1.2, 7)
    with np.errstate(all="raise"):
        h2 = effective_energy_cells(alphas, ula, zero, Combiner.MATCHED_DESPREAD)
        pd = pd_marginal_cells(np.full(7, 1e-6), h2, NOISE, threshold_from_pfa(1e-4))
    assert np.array_equal(h2, np.zeros(7))
    assert np.allclose(pd, 1e-4, rtol=1e-14)


def test_scalar_regressor_is_one_element_case(ula, pilots):
    alphas = np.array([-1.1, -0.3, 0.0, 0.25, 0.9])
    for comb in Combiner:
        cells = effective_energy_cells(alphas, ula, pilots, comb)
        pds = pd_marginal_cells(1e-7, cells, NOISE, 18.0)
        for alpha, h2, pd in zip(alphas, cells, pds):
            reg = despread_regressor_at_angle(float(alpha), ula, pilots, comb)
            assert reg.effective_norm_sq == h2
            assert pd_marginal(1e-7, h2, NOISE, 18.0) == pd
