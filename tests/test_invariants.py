"""Oracle-free relations of the bound maps: noise scaling, mirror symmetry,
and monotonicity in nuisances and data.

No relation needs a reference value.  Each runs the crb-map and peb-map
blocks at two configurations.  Where their bounds agree in exact arithmetic
it asks for identical masks and values, where one run's bounds can be no
lower it asks for that on every cell live in both; either within 1e-12
relative plus 64 kappa eps.  For a CRB kappa is the larger scaled condition
number of the cell's (sb, db) FIMs, for the PEB the largest of those and its
position information's (the larger of the two runs' for monotonicity).
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stcmsense import bounds, experiments
from stcmsense.config import build_model, fixed_scene, grid_points, merge_config
from stcmsense.geometry import jacobian_angles_to_position

EPS = float(np.finfo(float).eps)

# a 10-20 m lattice, with no fixed target (R = 1) or one (R = 2) at a
# point of a 10 m lattice
resolutions = st.floats(10.0, 20.0)
targets = st.tuples(st.integers(-7, 7), st.integers(1, 9)).map(
    lambda p: [{"position": [10.0 * p[0], 0.0, 10.0 * p[1]], "rcs_dbsm": 0.0}])
scenes = st.one_of(st.just([]), targets)


def config(res, scene, **over):
    return merge_config({"grid_res_m": res, "n_targets": len(scene) + 1, "scene": scene, **over})


def lattice(cfg):
    xs, zs = grid_points(build_model(cfg).geom, cfg["grid_res_m"])
    x, z = np.meshgrid(xs, zs)
    return np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])


def maps(cfg, q, mirror=False):
    """(CRB rows (2, n), PEB row (1, n), their kappa rows (2, n), noise power)
    of the crb-map and peb-map blocks at points q; with ``mirror`` the coding
    matrix's panel columns run in reverse order."""
    model = build_model(cfg)
    if mirror:
        c, p = model.code, model.panel
        e = c.entries.reshape(p.n_x, p.n_y, -1)[::-1].reshape(c.entries.shape)
        model = dataclasses.replace(model, code=dataclasses.replace(c, entries=e))
    b = experiments._builder(model, fixed_scene(cfg, model))

    def kappa(q, s):
        fims = bounds.scale_invariant_cond(b.fim_cells(s)).max(axis=0)
        with np.errstate(invalid="ignore"):
            e = np.stack([1.0 / np.linalg.inv(x)[:, 0, 0] for x in b.efims(s)], -1)
        t = jacobian_angles_to_position(q, model.geom)
        position = bounds.scale_invariant_cond(np.einsum("nki,nk,nkj->nij", t, e, t))
        return [fims, np.fmax(fims, position)]

    return (experiments._crb_block(q, model, b), experiments._peb_block(q, model, b),
            experiments._block(q, model, kappa, 2), model.noise_power)


def assert_same(got, want, kappa):
    """Equal masks, and values within 1e-12 relative plus 64 kappa eps."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    live = ~np.isnan(want)
    assert live.any()
    err = np.abs(got - want)[live]
    assert np.all(err <= ((1e-12 + 64 * kappa * EPS) * np.abs(want))[live])


def assert_no_lower(high, low, kappa) -> int:
    """high >= low on the cells live in both, within 1e-12 relative plus 64
    kappa eps; the number of those cells."""
    live = ~np.isnan(high) & ~np.isnan(low)
    assert np.all((low - high)[live] <= ((1e-12 + 64 * kappa * EPS) * np.abs(low))[live])
    return int(live.sum())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(res=resolutions, scene=scenes)
def test_noise_10_db_up_moves_every_crb_10_db_and_every_peb_root_10(res, scene):
    cfg = config(res, scene)
    q = lattice(cfg)
    crb, peb, kappa, noise = maps(cfg, q)
    crb_up, peb_up, _, noise_up = maps(config(res, scene, noise_power_dbm=cfg["noise_power_dbm"]
                                              + 10.0), q)
    ratio = noise_up / noise
    assert abs(ratio - 10.0) <= 1e-12 * 10.0
    assert_same(crb_up, crb * ratio, kappa[0])
    assert_same(peb_up, peb * np.sqrt(ratio), kappa[1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(res=resolutions, scene=scenes)
def test_reversed_panel_columns_mirror_the_maps(res, scene):
    # reversing the panel's columns mirrors its pattern, eta(xi) -> eta(-xi),
    # so with the fixed target mirrored too the bounds at (-x, z) are the
    # default's at (x, z)
    cfg = config(res, scene)
    q = lattice(cfg)
    crb, peb, kappa, _ = maps(cfg, q)
    mirror = [{**p, "position": [-p["position"][0], 0.0, p["position"][2]]} for p in scene]
    crb_m, peb_m, _, _ = maps(config(res, mirror), q * [-1.0, 1.0, 1.0], mirror=True)
    assert_same(crb_m, crb, kappa[0])
    assert_same(peb_m, peb, kappa[1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(res=resolutions, fixed=targets, rcs=st.floats(-10.0, 20.0))
def test_a_fixed_target_never_lowers_the_moving_targets_bounds(res, fixed, rcs):
    # its angle and gains are nuisances: the moving target's information is
    # a Schur complement of the R = 1 information, so no bound falls
    scene = [{**fixed[0], "rcs_dbsm": rcs}]
    q = lattice(config(res, []))
    crb, peb, kappa, _ = maps(config(res, []), q)
    crb_2, peb_2, kappa_2, _ = maps(config(res, scene), q)
    kappa = np.fmax(kappa, kappa_2)
    assert assert_no_lower(crb_2, crb, kappa[0]) > 0
    assert assert_no_lower(peb_2, peb, kappa[1]) > 0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(res=resolutions, scene=scenes, harmonics=st.integers(1, 4))
def test_one_more_harmonic_order_never_raises_crb_xi_or_the_peb(res, scene, harmonics):
    # orders +-(m_f + 1) add observations, so information only grows (from
    # m_f = 1: at 0 one harmonic cannot identify xi, and every CRB(xi) is masked)
    cfg = config(res, scene, harmonics=harmonics)
    q = lattice(cfg)
    crb, peb, kappa, _ = maps(cfg, q)
    crb_up, peb_up, kappa_up, _ = maps(config(res, scene, harmonics=harmonics + 1), q)
    kappa = np.fmax(kappa, kappa_up)
    assert assert_no_lower(crb[1], crb_up[1], kappa[0]) > 0
    assert assert_no_lower(peb, peb_up, kappa[1]) > 0
