"""The grid-batched bounds engine against an independent per-cell oracle.

The oracle is the stacked-derivative path: explicit derivative columns of
every target, ``fim_generic`` and a numeric inversion of the diagonally
normalized FIM for the CRBs; for the PEB, the Schur complement of the gain
block, the 2R x 2R angle inverse and the angle-to-position Jacobian.  It
never touches the closed-form traces or the stacked builder, inverse and
EFIM bodies the engine evaluates in array passes.  Angles, gains, the
Jacobian and the linear-panel response are written out here from their
definitions.  The lattice holds the BS centre, the panel centre and the
x = 0 BS-panel axis (with ten targets, also a fixed target and cells on its
BS ray), so every masking rule is exercised.
"""

import csv
import math
from collections import namedtuple

import numpy as np
import pytest

from stcmsense import bounds
from stcmsense.bounds import fim_generic
from stcmsense.channel import steering_derivative, steering_vector, vec
from stcmsense.config import build_model, fixed_scene, merge_config
from stcmsense.errors import SensingError
from stcmsense.experiments import run_crb_map, run_peb_map, run_ris_compare
from stcmsense.metasurface import harmonic_pattern_batch

from echo_oracle import db_regressor, sb_regressor

COND_LIMIT = 1e12
EPS = float(np.finfo(float).eps)
REL_TOL = 1e-12
CFG = {"grid_res_m": 10.0}


State = namedtuple("State", "alpha xi sb_gain db_gain")


def derivative_columns(t, kind, m):
    """(angle derivative column, regressor) of one target for the given path."""
    if kind == "sb":
        a, da = steering_vector(m.ula, t.alpha), steering_derivative(m.ula, t.alpha)
        dh = vec((np.outer(da, a) + np.outer(a, da)) @ m.pilots.symbols)
        return t.sb_gain * dh, sb_regressor(t.alpha, m.ula, m.pilots)
    eta, deta = harmonic_pattern_batch(m.panel, m.code, m.harmonics, t.xi, 0.0, m.mode)
    return (t.db_gain * db_regressor(t.alpha, deta[:, 0], m.ula, m.pilots),
            db_regressor(t.alpha, eta[:, 0], m.ula, m.pilots))


class Masked(Exception):
    pass


def scaled_cond(f):
    d = np.diag(f)
    if np.any(d <= 0) or not np.all(np.isfinite(f)):
        return math.inf
    return float(np.linalg.cond(f / np.sqrt(np.outer(d, d))))


class Oracle:
    def __init__(self, model, fixed=()):
        self.m = model
        self.kappa = 1.0
        self.fixed = [self.state(p[0], p[2]) for p in fixed]

    def require(self, f):
        k = scaled_cond(f)
        if not k <= COND_LIMIT:
            raise Masked
        self.kappa = max(self.kappa, k)

    def state(self, x, z):
        m = self.m
        bs, panel = m.geom.bs_center, m.geom.stcm_center
        d_r = math.sqrt((x - bs[0]) ** 2 + (z - bs[2]) ** 2)
        d_rp = math.sqrt((x - panel[0]) ** 2 + (z - panel[2]) ** 2)
        if d_r < 1e-9 or d_rp < 1e-9:
            raise Masked
        lam = m.wavelength

        def gain(d):
            return lam / (4 * math.pi * d ** m.iota) * np.exp(-2j * math.pi * d / lam)

        return State(alpha=math.atan2(x - bs[0], z - bs[2]),
                           xi=math.atan2(x - panel[0], abs(z - panel[2])),
                           sb_gain=gain(2 * d_r), db_gain=gain(m.geom.d_s + d_r + d_rp))

    def fim(self, t, kind):
        """FIM over [angle per target | (Re b, Im b) per target], moving target first."""
        cols = [derivative_columns(u, kind, self.m) for u in [t] + self.fixed]
        return fim_generic([d for d, _ in cols] + [c for _, h in cols for c in (h, 1j * h)],
                           self.m.noise_power).entries

    def inverse(self, f):
        self.require(f)
        s = np.sqrt(np.diag(f))
        return np.linalg.inv(f / np.outer(s, s)) / np.outer(s, s)

    def crb(self, t, kind):
        return float(self.inverse(self.fim(t, kind))[0, 0])

    def peb(self, x, z, t):
        m, r = self.m, 1 + len(self.fixed)
        bs, panel = m.geom.bs_center, m.geom.stcm_center
        dxb, dzb, dxs, w = x - bs[0], z - bs[2], x - panel[0], panel[2] - z
        rb, rs = dxb * dxb + dzb * dzb, dxs * dxs + w * w
        jac = np.array([[dzb / rb, -dxb / rb], [w / rs, dxs / rs]])
        f_ang = np.zeros((2 * r, 2 * r))
        for i, kind in enumerate(("sb", "db")):
            f = self.fim(t, kind)
            self.require(f[r:, r:])
            self.kappa = max(self.kappa, scaled_cond(f))
            angles = slice(i * r, (i + 1) * r)
            f_ang[angles, angles] = f[:r, :r] - f[:r, r:] @ np.linalg.solve(f[r:, r:], f[r:, :r])
        cov = self.inverse(f_ang)
        pair = np.linalg.inv(cov[np.ix_([0, r], [0, r])])
        return float(np.sqrt(np.trace(self.inverse(jac.T @ pair @ jac))))

    def ris(self, t):
        m = self.m
        k = 2 * math.pi / m.wavelength
        x_n = m.panel.element_positions()[:, 0]
        core = m.ris_profile.phases * np.exp(1j * k * math.sin(t.xi) * x_n)
        g, dg = core.sum(), (1j * k * math.cos(t.xi) * x_n * core).sum()
        a_r, a_s = steering_vector(m.ula, t.alpha), steering_vector(m.ula, 0.0)
        v = vec((np.outer(a_r, a_s) + np.outer(a_s, a_r)) @ m.pilots.symbols)
        f = fim_generic([t.db_gain * dg * v, g * v, 1j * g * v], m.noise_power).entries
        self.require(f)
        return float(np.linalg.inv(f)[0, 0])

    def value(self, name, x, z):
        """(value or None when masked, kappa of the matrices it needed)."""
        self.kappa = 1.0
        try:
            t = self.state(x, z)
            v = {"crb_alpha": lambda: self.crb(t, "sb"), "crb_xi": lambda: self.crb(t, "db"),
                 "stcm": lambda: self.crb(t, "db"), "peb": lambda: self.peb(x, z, t),
                 "ris": lambda: self.ris(t)}[name]()
            return (v if v > 0 else None), self.kappa
        except (Masked, SensingError):
            return None, self.kappa


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# (runner, file, [(value column, mask column, oracle name, dB-encoded)])
MAPS = [
    (run_crb_map, "crb_alpha_map.csv", [("crb_db", "masked", "crb_alpha", True)]),
    (run_crb_map, "crb_xi_map.csv", [("crb_db", "masked", "crb_xi", True)]),
    (run_peb_map, "peb_map.csv", [("peb_m", "masked", "peb", False)]),
    (run_ris_compare, "ris_compare.csv", [("ris_crb_xi_db", "ris_masked", "ris", True),
                                          ("stcm_crb_xi_db", "stcm_masked", "stcm", True)]),
]


def check_against_oracle(tmp_path, overrides, runner, name, columns):
    """Every value and mask of one map CSV against the oracle; returns the
    set of lattice cells."""
    cfg = merge_config(overrides)
    runner(cfg, str(tmp_path))
    rows = read_rows(tmp_path / name)
    model = build_model(cfg)
    oracle = Oracle(model, [p.position for p in fixed_scene(cfg, model)])
    masked = 0
    for r in rows:
        x, z = float(r["x_m"]), float(r["z_m"])
        for col, mask_col, ref_name, db in columns:
            ref, kappa = oracle.value(ref_name, x, z)
            assert (r[mask_col] == "true") == (ref is None), (name, col, x, z)
            if ref is None:
                masked += 1
                assert r[col] == ""
                continue
            got = 10.0 ** (float(r[col]) / 10.0) if db else float(r[col])
            assert abs(got - ref) <= (REL_TOL + 64 * kappa * EPS) * abs(ref), (name, col, x, z)
    assert masked >= 2  # at least the two terminal cells
    return {(float(r["x_m"]), float(r["z_m"])) for r in rows}


@pytest.mark.parametrize("runner,name,columns", MAPS, ids=[m[1] for m in MAPS])
def test_engine_matches_stacked_derivative_oracle(tmp_path, runner, name, columns):
    cells = check_against_oracle(tmp_path, CFG, runner, name, columns)
    assert {(0.0, 0.0), (0.0, 100.0), (0.0, 50.0)} <= cells


@pytest.mark.parametrize("overrides", [{**CFG, "n_targets": 2}, {"grid_res_m": 20.0, "n_targets": 10}],
                         ids=["two_targets", "ten_targets"])
@pytest.mark.parametrize("runner,name,columns", MAPS[:3], ids=[m[1] for m in MAPS[:3]])
def test_multi_target_engine_matches_oracle(tmp_path, runner, name, columns, overrides):
    check_against_oracle(tmp_path, overrides, runner, name, columns)


@pytest.mark.parametrize("runner", [run_crb_map, run_peb_map], ids=["crb-map", "peb-map"])
def test_svd_runs_only_where_the_certificate_cannot_decide(tmp_path, monkeypatch, runner):
    """At most 5% of the matrices whose mask is decided reach the SVD, and
    the CSVs are byte-identical to a run where every one of them does."""
    rows = {"decided": 0, "svd": 0}
    cond, certify = bounds.scale_invariant_cond, bounds._certified_inverse

    def counting_cond(m):
        rows["svd"] += len(m)
        return cond(m)

    def counting_certify(f, limit):
        rows["decided"] += len(f)
        return certify(f, limit)

    monkeypatch.setattr(bounds, "scale_invariant_cond", counting_cond)
    monkeypatch.setattr(bounds, "_certified_inverse", counting_certify)
    cfg = merge_config({"grid_res_m": 20.0, "n_targets": 10, "threads": 1})
    (tmp_path / "certified").mkdir()
    (tmp_path / "svd").mkdir()
    fast = runner(cfg, str(tmp_path / "certified"))
    assert rows["decided"] >= 100 and rows["svd"] <= 0.05 * rows["decided"]

    # margins no kappa_F can meet leave every row to the SVD rule
    monkeypatch.setattr(bounds, "_PASS_MARGIN", 0.0)
    monkeypatch.setattr(bounds, "_MASK_MARGIN", math.inf)
    rows.update(decided=0, svd=0)
    slow = runner(cfg, str(tmp_path / "svd"))
    assert rows["svd"] >= 0.95 * rows["decided"]
    csvs = [f for f in fast if f.endswith(".csv")]
    assert csvs
    for a, b in zip(csvs, [f for f in slow if f.endswith(".csv")]):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a
