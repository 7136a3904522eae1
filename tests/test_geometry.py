import numpy as np
import pytest

from stcmsense.errors import DegeneratePoint, DegenerateTriangle
from stcmsense.geometry import (
    AnglePair,
    SceneGeometry,
    ScatterPoint,
    TargetKind,
    angles_from_position,
    jacobian_angles_to_position,
    position_from_angles,
    rcs_sqrt_from_dbsm,
    triangle_distances,
)


def random_scene_point(rng, geom):
    """Point inside the plane, away from the degenerate axis and terminals."""
    while True:
        q = np.array([rng.uniform(-79, 79), 0.0, rng.uniform(1.0, 99.0)])
        ang = angles_from_position(q, geom)
        if abs(ang.alpha + ang.xi) > 2e-3:
            return q


def test_angles_on_common_axis_are_zero(geom):
    ang = angles_from_position([0.0, 0.0, 50.0], geom)
    assert ang.alpha == 0.0
    assert ang.xi == 0.0


def test_alpha_forty_five_degrees(geom):
    ang = angles_from_position([50.0, 0.0, 50.0], geom)
    assert ang.alpha == pytest.approx(np.pi / 4, abs=1e-15)


def test_angles_against_direct_arctan(geom):
    # oracle: alpha = arctan(30/40), xi = arctan(30/60) evaluated directly
    ang = angles_from_position([30.0, 0.0, 40.0], geom)
    assert ang.alpha == pytest.approx(0.6435011087932844, abs=1e-15)
    assert ang.xi == pytest.approx(0.4636476090008061, abs=1e-15)


def test_range_from_law_of_sines(geom):
    # oracle: d_r = d_S sin(xi)/sin(alpha+xi) at alpha = xi = pi/4
    q = position_from_angles(AnglePair(np.pi / 4, np.pi / 4), geom)
    d_r = np.linalg.norm(q - geom.bs_center)
    assert d_r == pytest.approx(100 * np.sin(np.pi / 4) / np.sin(np.pi / 2), rel=1e-14)


def test_isoceles_symmetry(geom):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0.05, 1.3)
        q = position_from_angles(AnglePair(a, a), geom)
        d_r, _, d_rp = triangle_distances(q, geom)
        assert d_r == pytest.approx(d_rp, rel=1e-12)


def test_roundtrip_angles_positions(geom):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.uniform(0.02, 1.3) * rng.choice([-1.0, 1.0])
        x = rng.uniform(0.02, 1.3) * np.sign(a)
        if abs(a + x) < 2e-3 or abs(a) + abs(x) >= np.pi:
            continue
        q = position_from_angles(AnglePair(a, x), geom)
        ang = angles_from_position(q, geom)
        assert ang.alpha == pytest.approx(a, abs=1e-11)
        assert ang.xi == pytest.approx(x, abs=1e-11)
        q2 = position_from_angles(ang, geom)
        assert np.linalg.norm(q - q2) < 1e-9


def test_law_of_sines_identity(geom):
    rng = np.random.default_rng(3)
    for _ in range(500):
        a = rng.uniform(0.05, 1.2)
        x = rng.uniform(0.05, 1.2)
        q = position_from_angles(AnglePair(a, x), geom)
        d_r, d_s, d_rp = triangle_distances(q, geom)
        zeta = np.pi - a - x
        r = np.array([d_s / np.sin(zeta), d_r / np.sin(x), d_rp / np.sin(a)])
        assert np.ptp(r) / r.mean() < 1e-12


def test_degenerate_axis_raises(geom):
    with pytest.raises(DegenerateTriangle):
        position_from_angles(AnglePair(0.0, 0.0), geom)
    with pytest.raises(DegenerateTriangle):
        position_from_angles(AnglePair(5e-4, 4e-4), geom)


def test_terminal_points_raise(geom):
    with pytest.raises(DegeneratePoint):
        angles_from_position(geom.bs_center, geom)
    with pytest.raises(DegeneratePoint):
        angles_from_position(geom.stcm_center, geom)
    with pytest.raises(DegeneratePoint):
        jacobian_angles_to_position(geom.stcm_center, geom)


def test_jacobian_on_axis_magnitudes(geom):
    # both angle gradients point along x with magnitude 1/d at (0, 0, 50);
    # the rows are parallel there, which is exactly the masked-PEB axis
    t = jacobian_angles_to_position([0.0, 0.0, 50.0], geom)
    assert t == pytest.approx(np.array([[0.02, 0.0], [0.02, 0.0]]), abs=1e-15)


def test_jacobian_matches_finite_differences(geom):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(500):
        q = random_scene_point(rng, geom)
        t = jacobian_angles_to_position(q, geom)
        fd = np.zeros((2, 2))
        for col, axis in enumerate((0, 2)):
            dq = np.zeros(3)
            dq[axis] = h
            hi = angles_from_position(q + dq, geom)
            lo = angles_from_position(q - dq, geom)
            fd[:, col] = [(hi.alpha - lo.alpha) / (2 * h), (hi.xi - lo.xi) / (2 * h)]
        scale = np.abs(fd) + np.abs(t)
        mask = scale > 1e-9
        rel = np.abs(t - fd)[mask] / scale[mask]
        assert rel.max() < 1e-6


def test_jacobian_scaling_homogeneity():
    # scaling every distance by c scales the Jacobian by 1/c
    g1 = SceneGeometry()
    g2 = SceneGeometry(stcm_center=[0.0, 0.0, 300.0], x_bounds=(-240, 240), z_bounds=(0, 300))
    q = np.array([20.0, 0.0, 30.0])
    t1 = jacobian_angles_to_position(q, g1)
    t2 = jacobian_angles_to_position(3.0 * q, g2)
    assert t2 == pytest.approx(t1 / 3.0, rel=1e-12)


def test_scatter_point_invariants():
    with pytest.raises(ValueError):
        ScatterPoint(position=[0, 0, 10], rcs_sqrt=0.0, kind=TargetKind.HUMAN_LIKE)
    with pytest.raises(ValueError):
        ScatterPoint(position=[0, 0, 10], rcs_sqrt=1.0, kind=TargetKind.ABSENT)
    p = ScatterPoint(position=[0, 0, 10], rcs_sqrt=0.0, kind=TargetKind.ABSENT)
    assert p.rcs_sqrt == 0.0


def test_rcs_conversion_is_amplitude_domain():
    assert rcs_sqrt_from_dbsm(0.0) == 1.0
    assert rcs_sqrt_from_dbsm(17.0) == pytest.approx(10 ** 0.85, rel=1e-15)
    # power-domain RCS is the square of the returned amplitude
    assert rcs_sqrt_from_dbsm(17.0) ** 2 == pytest.approx(10 ** 1.7, rel=1e-12)


def test_array_angles_are_stacked_scalar_calls(geom):
    rng = np.random.default_rng(13)
    a = rng.uniform(0.02, 1.3, 400) * rng.choice([-1.0, 1.0], 400)
    x = rng.uniform(0.02, 1.3, 400) * np.sign(a)
    keep = np.abs(a + x) >= 2e-3
    a, x = a[keep], x[keep]
    q = position_from_angles(AnglePair(a, x), geom)
    want = [position_from_angles(AnglePair(float(u), float(v)), geom) for u, v in zip(a, x)]
    assert q.shape == (len(a), 3)
    assert q.tobytes() == np.array(want).tobytes()
    assert position_from_angles(AnglePair(a[:1], x[:1]), geom).shape == (1, 3)
    # array round trip
    q2 = position_from_angles(angles_from_position(q, geom), geom)
    assert np.max(np.linalg.norm(q - q2, axis=-1)) < 1e-9


def test_one_degenerate_member_raises(geom):
    # on the BS-panel axis, and a pair that closes no triangle (d_r < 0)
    for bad in ((5e-4, 4e-4), (0.9, -0.5)):
        a, x = np.array([0.3, bad[0], 0.6]), np.array([0.4, bad[1], 0.2])
        with pytest.raises(DegenerateTriangle):
            position_from_angles(AnglePair(a, x), geom)
