"""The grid-batched bounds engine against an independent per-cell oracle.

The oracle is the stacked-derivative path: explicit derivative columns,
``fim_generic`` and a numeric inversion (``crbs_from_fim``; ``efim`` plus the
angle-to-position Jacobian for the PEB).  It never touches the closed-form
traces the engine evaluates in array passes.  Angles, gains, the Jacobian
and the linear-panel response are written out here from their definitions.
The lattice holds the BS centre, the panel centre and the x = 0 BS-panel
axis, so every masking rule is exercised.
"""

import csv
import math

import numpy as np
import pytest

from stcmsense.bounds import TargetState, crbs_from_fim, efim, fim_generic, target_derivative_columns
from stcmsense.channel import steering_vector, vec
from stcmsense.config import build_model, merge_config
from stcmsense.errors import SensingError
from stcmsense.experiments import run_crb_map, run_peb_map, run_ris_compare

COND_LIMIT = 1e12
EPS = float(np.finfo(float).eps)
REL_TOL = 1e-12
CFG = {"grid_res_m": 10.0}


class Masked(Exception):
    pass


def scaled_cond(f):
    d = np.diag(f)
    if np.any(d <= 0) or not np.all(np.isfinite(f)):
        return math.inf
    return float(np.linalg.cond(f / np.sqrt(np.outer(d, d))))


class Oracle:
    def __init__(self, model):
        self.m = model
        self.kappa = 1.0

    def require(self, f):
        k = scaled_cond(f)
        if not k <= COND_LIMIT:
            raise Masked
        self.kappa = max(self.kappa, k)

    def state(self, x, z):
        m = self.m
        bs, panel = m.geom.bs_center, m.geom.stcm_center
        d_r = math.hypot(x - bs[0], z - bs[2])
        d_rp = math.hypot(x - panel[0], z - panel[2])
        if d_r < 1e-9 or d_rp < 1e-9:
            raise Masked
        lam = m.wavelength

        def gain(d):
            return lam / (4 * math.pi * d ** m.iota) * np.exp(-2j * math.pi * d / lam)

        return TargetState(alpha=math.atan2(x - bs[0], z - bs[2]),
                           xi=math.atan2(x - panel[0], abs(z - panel[2])),
                           sb_gain=gain(2 * d_r), db_gain=gain(m.geom.d_s + d_r + d_rp))

    def fim(self, t, kind):
        m = self.m
        d, h = target_derivative_columns(t, kind, m.ula, m.pilots, m.panel, m.code,
                                         m.harmonics, m.mode)
        return fim_generic([d, h, 1j * h], m.noise_power)

    def crb(self, t, kind):
        f = self.fim(t, kind)
        self.require(f.entries)
        return float(crbs_from_fim(f)[0])

    def peb(self, x, z, t):
        m = self.m
        bs, panel = m.geom.bs_center, m.geom.stcm_center
        dxb, dzb, dxs, w = x - bs[0], z - bs[2], x - panel[0], panel[2] - z
        rb, rs = dxb * dxb + dzb * dzb, dxs * dxs + w * w
        jac = np.array([[dzb / rb, -dxb / rb], [w / rs, dxs / rs]])
        fims = [self.fim(t, kind) for kind in ("sb", "db")]
        for f in fims:
            self.require(f.entries[1:, 1:])
            self.kappa = max(self.kappa, scaled_cond(f.entries))
        f_pos = jac.T @ np.diag([efim(f) for f in fims]) @ jac
        self.require(f_pos)
        return float(np.sqrt(np.trace(np.linalg.inv(f_pos))))

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


@pytest.mark.parametrize("runner,name,columns", MAPS, ids=[m[1] for m in MAPS])
def test_engine_matches_stacked_derivative_oracle(tmp_path, runner, name, columns):
    cfg = merge_config(CFG)
    runner(cfg, str(tmp_path))
    rows = read_rows(tmp_path / name)
    oracle = Oracle(build_model(cfg))
    cells = {(float(r["x_m"]), float(r["z_m"])) for r in rows}
    assert {(0.0, 0.0), (0.0, 100.0), (0.0, 50.0)} <= cells
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
