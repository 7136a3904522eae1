"""Experiment configuration: one schema, model assembly and scene building.

A single JSON document drives every experiment; the embedded default block
reproduces the reference simulation parameters (16-element ULA, 64-element
panel, 8-slot 2 us coding period, 10 GHz carrier, 12 dBm pilot block,
-120 dBm noise, 160 x 100 m scene with the panel 100 m above the BS).

``merge_config`` is the one check of a document: it types every key by its
default, tests it against its ``RULES`` row and casts it to the default's
type, then ``_check_across`` tests what spans keys.  Every verb and
``validate`` resolve their config there; the builders below trust it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ANGLE_CHUNK, PilotMatrix, UlaLayout, dft_pilots
from .classification import HypothesisSet
from .constants import MAX_GRID_CELLS, MAX_MODEL_BYTES, MAX_TRIALS
from .errors import ConfigError
from .geometry import SceneGeometry, ScatterPoint, TargetKind, rcs_sqrt_from_dbsm, terminal_mask
from .metasurface import (
    CodingMatrix,
    HarmonicSet,
    PanelLayout,
    RisProfile,
    WavelengthMode,
    default_coding_matrix,
)

DEFAULT_CONFIG: dict = {
    "carrier_hz": 1.0e10,
    "bs": {"antennas": 16},
    "panel": {"n_x": 8, "n_y": 8},
    "code": {"length": 8, "period_s": 2.0e-6},
    "harmonics": 3,
    "wavelength_mode": "exact",
    "pilot_total_power_dbm": 12.0,
    "noise_power_dbm": -120.0,
    "path_loss_exponent": 2.0,
    "sigma_nu": 1.0,
    "rcs_dbsm": {"human_like": 1.0, "object_like": 17.0},
    "geometry": {
        "bs_center": [0.0, 0.0, 0.0],
        "stcm_center": [0.0, 0.0, 100.0],
        "x_bounds": [-80.0, 80.0],
        "z_bounds": [0.0, 100.0],
    },
    "grid_res_m": 1.0,
    "p_fa": 1.0e-4,
    "n_trials": 10_000,
    "seed": 20240101,
    "threads": 1,
    # fixed scatter points for multi-target experiments; the moving target
    # sweeps the grid.  n_targets 1 uses none of these.
    "n_targets": 1,
    "fixed_targets": {
        "two": [[60.0, 0.0, 40.0]],
        # nine angles covering the BS field of view short of broadside,
        # -72..72 deg in 18 deg steps at 50 m range
        "ten": "angular_ring",
    },
    # explicit scene override: list of {"position": [x, y, z],
    # "rcs_dbsm": r, "kind": "human_like"|"object_like"}; when non-empty it
    # replaces the named fixed-target layouts
    "scene": [],
    "classification_snr_db": [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
}


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


# Every dB value (powers in dBm, RCS in dBsm, SNRs in dB) stays within this
# bound, so each linear value 10^(x/10) and its square are normal floats;
# an amplitude (``sigma_nu``) stays within the same bound as 10^(x/20).
DB_LIMIT = 300.0
AMPLITUDE_LIMIT = 10.0 ** (DB_LIMIT / 20.0)


def _number(v) -> bool:
    """A finite int or float; an int past the float range is not finite either."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _db(v) -> bool:
    return _number(v) and abs(v) <= DB_LIMIT


def _xyz(v) -> bool:
    return isinstance(v, list) and len(v) == 3 and all(map(_number, v))


def _points(v) -> bool:
    return isinstance(v, list) and all(map(_xyz, v))


_DB = f"in [-{DB_LIMIT:g}, {DB_LIMIT:g}] dB"
_MODES = [w.value for w in WavelengthMode]
_KINDS = [k.value for k in TargetKind]
_CENTER = (lambda v: len(v) == 3 and v[1] == 0, "a point [x, 0, z] in the y = 0 plane")
_BOUNDS = (lambda v: len(v) == 2 and v[0] <= v[1], "[min, max]")

# Key path -> (test, what the value must be).  The test sees the value after
# it has been cast to its default's type; a string default names an option,
# and its test alone decides which values it takes.
RULES = {
    "carrier_hz": (lambda v: v > 0, "positive"),
    "bs.antennas": (lambda v: v >= 1 and math.isqrt(v) ** 2 == v, "a positive perfect square"),
    "panel.n_x": (lambda v: v >= 1, "at least 1"),
    "panel.n_y": (lambda v: v >= 1, "at least 1"),
    "code.length": (lambda v: v >= 2, "at least 2"),
    "code.period_s": (lambda v: v > 0, "positive"),
    "harmonics": (lambda v: v >= 0, "at least 0"),
    "wavelength_mode": (lambda v: v in _MODES, f"one of {_MODES}"),
    "pilot_total_power_dbm": (_db, _DB),
    "noise_power_dbm": (_db, _DB),
    "path_loss_exponent": (lambda v: 0 < v <= 10, "in (0, 10]"),
    "sigma_nu": (lambda v: 0 < v <= AMPLITUDE_LIMIT, f"in (0, {AMPLITUDE_LIMIT:g}]"),
    "rcs_dbsm.human_like": (_db, _DB),
    "rcs_dbsm.object_like": (_db, _DB),
    "geometry.bs_center": _CENTER,
    "geometry.stcm_center": _CENTER,
    "geometry.x_bounds": _BOUNDS,
    "geometry.z_bounds": _BOUNDS,
    "grid_res_m": (lambda v: v > 0, "positive"),
    "p_fa": (lambda v: 0 < v < 1, "in (0, 1)"),
    "n_trials": (lambda v: 1 <= v <= MAX_TRIALS, f"in [1, {MAX_TRIALS}]"),
    "seed": (lambda v: v >= 0, "at least 0"),
    "threads": (lambda v: v >= 1, "at least 1"),
    "n_targets": (lambda v: v in (1, 2, 10), "one of 1, 2, 10"),
    "fixed_targets.two": (_points, "a list of points [x, y, z]"),
    "fixed_targets.ten": (lambda v: v == "angular_ring" or _points(v),
                          '"angular_ring" or a list of points [x, y, z]'),
    "scene": (lambda v: all(isinstance(e, dict) for e in v), "a list of objects"),
    "classification_snr_db": (lambda v: len(v) > 0 and all(map(_db, v)),
                              f"a non-empty list of values {_DB}"),
}


def _walk(v, default, path: str):
    """``v`` checked against ``default`` and cast to its type: an object is
    filled in from its default, a list cast entry by entry (kept as given when
    the default list is empty), a number cast to int or float; a string
    default names an option that its rule alone decides.  Then the value must
    pass its ``RULES`` row (a list entry has none of its own)."""
    if isinstance(default, dict):
        if not isinstance(v, dict):
            raise ConfigError(f"{path or 'config'} must be an object, got {json.dumps(v)}")
        out = copy.deepcopy(default)
        for k, x in v.items():
            key = f"{path}.{k}" if path else k
            if k not in default:
                raise ConfigError(f"unknown config key: {key!r}")
            out[k] = _walk(x, default[k], key)
        return out
    if isinstance(default, list):
        if not isinstance(v, list):
            raise ConfigError(f"{path} must be a list, got {json.dumps(v)}")
        if default:
            v = [_walk(x, default[0], f"{path}[{i}]") for i, x in enumerate(v)]
    elif not isinstance(default, str):
        if not _number(v) or (isinstance(default, int) and v != int(v)):
            what = "an integer" if isinstance(default, int) else "a finite number"
            raise ConfigError(f"{path} must be {what}, got {json.dumps(v)}")
        v = type(default)(v)
    test, want = RULES.get(path, (None, None))
    if test is not None and not test(v):
        raise ConfigError(f"{path} must be {want}, got {json.dumps(v)}")
    return v


def _check_across(cfg: dict) -> None:
    """The conditions that span keys, on a config whose every key passed its rule."""
    # model arrays in bytes: the complex M x M pilot block and its Gram; per
    # element the (N, L) code, baseline profile and position; one chunk of
    # pattern temporaries (under 64 B per angle, harmonic and panel column)
    # with the harmonics' (K, N) coefficients
    p, m, h, ell = cfg["panel"], cfg["bs"]["antennas"], cfg["harmonics"], cfg["code"]["length"]
    n, k, panel = p["n_x"] * p["n_y"], 2 * h + 1, f"panel {p['n_x']} x {p['n_y']}"
    for what, size in ((f"bs.antennas {m}", 32 * m * m),
                       (f"{panel} with code.length {ell}", n * (8 * ell + 40)),
                       (f"harmonics {h} over {panel}", k * (64 * ANGLE_CHUNK * p["n_x"] + 16 * n))):
        if size > MAX_MODEL_BYTES:
            raise ConfigError(f"{what} needs {size:.3g} B of model arrays, over the "
                              f"{MAX_MODEL_BYTES} B budget")
    # the lowest sideband f_c - m_f f_0 sets a wavelength c / f in the patterns
    if not cfg["carrier_hz"] - cfg["harmonics"] / cfg["code"]["period_s"] > 0:
        raise ConfigError("harmonics / code.period_s must stay below carrier_hz, got "
                          f"{json.dumps(cfg['harmonics'])} / {json.dumps(cfg['code']['period_s'])}")
    rcs = cfg["rcs_dbsm"]
    if not rcs_sqrt_from_dbsm(rcs["human_like"]) < rcs_sqrt_from_dbsm(rcs["object_like"]):
        raise ConfigError("rcs_dbsm.human_like must be below rcs_dbsm.object_like, got "
                          f"{json.dumps(rcs['human_like'])} and {json.dumps(rcs['object_like'])}")
    g = cfg["geometry"]
    if not np.linalg.norm(np.subtract(g["bs_center"], g["stcm_center"])) > 0:
        raise ConfigError("geometry.stcm_center must differ from geometry.bs_center, got "
                          f"{json.dumps(g['stcm_center'])}")
    # the bounds and the echo see the panel on the BS boresight (angle 0)
    if g["stcm_center"][0] != g["bs_center"][0]:
        raise ConfigError("geometry.stcm_center x must equal geometry.bs_center x, got "
                          f"{json.dumps(g['stcm_center'])} and {json.dumps(g['bs_center'])}")
    geom = SceneGeometry(bs_center=g["bs_center"], stcm_center=g["stcm_center"],
                         x_bounds=tuple(g["x_bounds"]), z_bounds=tuple(g["z_bounds"]))
    grid_points(geom, cfg["grid_res_m"])
    for i, entry in enumerate(cfg["scene"]):
        at = f"scene[{i}]"
        for k in entry:
            if k not in ("position", "rcs_dbsm", "kind"):
                raise ConfigError(f"unknown config key: {f'{at}.{k}'!r}")
        kind = entry.get("kind", "object_like")
        rcs, pos = entry.get("rcs_dbsm"), entry.get("position")
        if kind not in _KINDS:
            raise ConfigError(f"{at}.kind must be one of {_KINDS}, got {json.dumps(kind)}")
        if not (kind == "absent" and "rcs_dbsm" not in entry or _db(rcs)):
            raise ConfigError(f"{at}.rcs_dbsm must be a number {_DB}, got {json.dumps(rcs)}")
        if not _xyz(pos):
            raise ConfigError(f"{at}.position must be 3 finite numbers, got {json.dumps(pos)}")
    points, n = _placements(cfg, geom.bs_center), cfg["n_targets"]
    if not cfg["scene"] and len(points) != n - 1:
        key = "two" if n == 2 else "ten"
        raise ConfigError(f"fixed_targets.{key} must hold n_targets - 1 = {n - 1} points, "
                          f"got {json.dumps(cfg['fixed_targets'][key])}")
    for at, q in points:
        if terminal_mask(q, geom):
            raise ConfigError(f"{at} {json.dumps(q.tolist())} sits on geometry.bs_center "
                              "or geometry.stcm_center")


def merge_config(overrides: dict | None) -> dict:
    """Defaults overlaid with a (possibly partial) override document, checked
    and normalized; raises ConfigError naming the first bad key."""
    cfg = _walk({} if overrides is None else overrides, DEFAULT_CONFIG, "")
    _check_across(cfg)
    return cfg


def load_config(path=None, overrides: dict | None = None) -> dict:
    doc = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be an object, got {json.dumps(doc)}")
    return merge_config({**doc, **(overrides or {})})


def config_hash(cfg: dict) -> str:
    """Stable digest of a config resolved by ``merge_config`` without the
    execution-only ``threads``; as each number has its default's type there,
    3 and 3.0 hash alike."""
    canon = json.dumps({k: v for k, v in cfg.items() if k != "threads"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class SystemModel:
    """All scene/hardware objects one experiment needs, pre-built."""

    geom: SceneGeometry
    ula: UlaLayout
    panel: PanelLayout
    code: CodingMatrix
    harmonics: HarmonicSet
    pilots: PilotMatrix
    noise_power: float
    sigma_nu: float
    iota: float
    p_fa: float
    mode: WavelengthMode
    hypotheses: HypothesisSet
    ris_profile: RisProfile

    @property
    def wavelength(self) -> float:
        return self.ula.wavelength


def build_model(cfg: dict) -> SystemModel:
    """The scene and hardware objects of a config resolved by ``merge_config``."""
    g = cfg["geometry"]
    geom = SceneGeometry(bs_center=g["bs_center"], stcm_center=g["stcm_center"],
                         x_bounds=tuple(g["x_bounds"]), z_bounds=tuple(g["z_bounds"]))
    carrier = cfg["carrier_hz"]
    ula = UlaLayout.half_wavelength(cfg["bs"]["antennas"], carrier)
    panel = PanelLayout.half_wavelength(cfg["panel"]["n_x"], cfg["panel"]["n_y"], carrier)
    code = default_coding_matrix(panel, cfg["code"]["length"], cfg["code"]["period_s"])
    harmonics = HarmonicSet(cfg["harmonics"])
    pilots = dft_pilots(ula.m_antennas, dbm_to_watt(cfg["pilot_total_power_dbm"]))
    rcs = cfg["rcs_dbsm"]
    hyp = HypothesisSet(rcs_sqrts=(0.0, rcs_sqrt_from_dbsm(rcs["human_like"]),
                                   rcs_sqrt_from_dbsm(rcs["object_like"])))
    return SystemModel(
        geom=geom,
        ula=ula,
        panel=panel,
        code=code,
        harmonics=harmonics,
        pilots=pilots,
        noise_power=dbm_to_watt(cfg["noise_power_dbm"]),
        sigma_nu=cfg["sigma_nu"],
        iota=cfg["path_loss_exponent"],
        p_fa=cfg["p_fa"],
        mode=WavelengthMode(cfg["wavelength_mode"]),
        hypotheses=hyp,
        ris_profile=RisProfile(np.ones(panel.n_elements, dtype=complex)),
    )


def grid_points(geom: SceneGeometry, res_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice (x, z) covering the scene bounds at the given resolution.

    Raises ConfigError, before allocating, when the lattice would hold more
    than ``MAX_GRID_CELLS`` cells.
    """
    if not res_m > 0:
        raise ConfigError(f"grid_res_m must be positive, got {res_m}")
    bounds = (("x_bounds", geom.x_bounds), ("z_bounds", geom.z_bounds))
    counts = []
    for key, (lo, hi) in bounds:
        n = int(round(min((hi - lo) / res_m, MAX_GRID_CELLS))) + 1
        if n < 1:
            raise ConfigError(f"geometry.{key} {[lo, hi]} holds no grid point "
                              f"at resolution {res_m} m; expected [min, max]")
        counts.append(n)
    if counts[0] * counts[1] > MAX_GRID_CELLS:
        raise ConfigError(f"grid_res_m {res_m} m over geometry.x_bounds {list(geom.x_bounds)} and "
                          f"geometry.z_bounds {list(geom.z_bounds)} asks for more than "
                          f"{MAX_GRID_CELLS} grid cells")
    return (geom.x_bounds[0] + res_m * np.arange(counts[0]),
            geom.z_bounds[0] + res_m * np.arange(counts[1]))


def scene_from_config(cfg: dict) -> list[ScatterPoint]:
    """Explicit scatter points from the ``scene`` block of a resolved config."""
    points = []
    for entry in cfg["scene"]:
        kind = TargetKind(entry.get("kind", "object_like"))
        points.append(ScatterPoint(
            position=np.asarray(entry["position"], dtype=float),
            rcs_sqrt=0.0 if kind is TargetKind.ABSENT else rcs_sqrt_from_dbsm(entry["rcs_dbsm"]),
            kind=kind))
    return points


def _placements(cfg: dict, bs_center: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """(config path, position) of every fixed scatter point: the ``scene``
    entries when there are any, else the named layout for ``n_targets``."""
    if cfg["scene"]:
        return [(f"scene[{i}].position", np.asarray(e["position"], dtype=float))
                for i, e in enumerate(cfg["scene"])]
    n = cfg["n_targets"]
    if n == 1:
        return []
    key = "two" if n == 2 else "ten"
    placement = cfg["fixed_targets"][key]
    if placement == "angular_ring":
        angles = np.deg2rad(np.arange(-72.0, 72.1, 18.0))
        return [(f"fixed_targets.{key}", bs_center + 50.0 * np.array([np.sin(a), 0.0, np.cos(a)]))
                for a in angles]
    return [(f"fixed_targets.{key}[{i}]", np.asarray(p, dtype=float))
            for i, p in enumerate(placement)]


def fixed_scene(cfg: dict, model: SystemModel) -> list[ScatterPoint]:
    """Fixed scatter points of a resolved config.

    An explicit ``scene`` block wins; otherwise the named layout for
    ``n_targets`` R applies, R - 1 points with unit sqrt-RCS each
    (full-power reflection convention).  The ten-target ring places nine
    targets at -72..72 degrees in 18-degree steps, 50 m from the BS.
    """
    return scene_from_config(cfg) or [
        ScatterPoint(position=q, rcs_sqrt=1.0, kind=TargetKind.OBJECT_LIKE)
        for _, q in _placements(cfg, model.geom.bs_center)]
