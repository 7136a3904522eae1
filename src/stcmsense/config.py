"""Experiment configuration: one schema, model assembly and scene building.

A single JSON document drives every experiment; the embedded default block
reproduces the reference simulation parameters (16-element ULA, 64-element
panel, 8-slot 2 us coding period, 10 GHz carrier, 12 dBm pilot block,
-120 dBm noise, 160 x 100 m scene with the panel 100 m above the BS).

``SCHEMA`` declares each key once, as one row (default, test, what the
value must be); ``DEFAULT_CONFIG`` and ``RULES`` are read from it.
``merge_config`` is the one check of a document: it types every key by its
default, casts it to the default's type and tests it against its row, then
``_check_across`` tests what spans keys: the model-array budget, the lowest
sideband, the RCS order, the one frame the model assumes (the panel on the
BS boresight, above the BS), the lattice and the fixed points, which one
reader (``_scene``) checks and builds.  Every verb and ``validate`` resolve
their config there; the builders below trust it.
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


# the R - 1 reference fixed points of n_targets R, from the BS centre: R = 2
# one point, R = 10 nine points 50 m from the BS at -72..72 deg in 18 deg
# steps, covering its field of view short of broadside
_LAYOUTS = {1: lambda bs: [], 2: lambda bs: [np.array([60.0, 0.0, 40.0])],
            10: lambda bs: [bs + 50.0 * np.array([np.sin(a), 0.0, np.cos(a)])
                            for a in np.deg2rad(np.arange(-72.0, 72.1, 18.0))]}

_DB = f"in [-{DB_LIMIT:g}, {DB_LIMIT:g}] dB"
_MODES = [w.value for w in WavelengthMode]
_KINDS = [k.value for k in TargetKind]
_CENTER = (lambda v: len(v) == 3 and v[1] == 0, "a point [x, 0, z] in the y = 0 plane")
_BOUNDS = (lambda v: len(v) == 2 and v[0] <= v[1], "[min, max]")

# Key path -> (default, test, what the value must be), in document order.
# The default gives the key its type; the test sees the value after it has
# been cast to that type.  A string default names an option, and its test
# alone decides which values it takes.
SCHEMA = {
    "carrier_hz": (1.0e10, lambda v: v > 0, "positive"),
    "bs.antennas": (16, lambda v: v >= 1 and math.isqrt(v) ** 2 == v, "a positive perfect square"),
    "panel.n_x": (8, lambda v: v >= 1, "at least 1"),
    "panel.n_y": (8, lambda v: v >= 1, "at least 1"),
    "code.length": (8, lambda v: v >= 2, "at least 2"),
    "code.period_s": (2.0e-6, lambda v: v > 0, "positive"),
    "harmonics": (3, lambda v: v >= 0, "at least 0"),
    "wavelength_mode": ("exact", lambda v: v in _MODES, f"one of {_MODES}"),
    "pilot_total_power_dbm": (12.0, _db, _DB),
    "noise_power_dbm": (-120.0, _db, _DB),
    "path_loss_exponent": (2.0, lambda v: 0 < v <= 10, "in (0, 10]"),
    "sigma_nu": (1.0, lambda v: 0 < v <= AMPLITUDE_LIMIT, f"in (0, {AMPLITUDE_LIMIT:g}]"),
    "rcs_dbsm.human_like": (1.0, _db, _DB),
    "rcs_dbsm.object_like": (17.0, _db, _DB),
    # the panel on the BS boresight above the BS (_check_across)
    "geometry.bs_center": ([0.0, 0.0, 0.0], *_CENTER),
    "geometry.stcm_center": ([0.0, 0.0, 100.0], *_CENTER),
    "geometry.x_bounds": ([-80.0, 80.0], *_BOUNDS),
    "geometry.z_bounds": ([0.0, 100.0], *_BOUNDS),
    "grid_res_m": (1.0, lambda v: v > 0, "positive"),
    "p_fa": (1.0e-4, lambda v: 0 < v < 1, "in (0, 1)"),
    "n_trials": (10_000, lambda v: 1 <= v <= MAX_TRIALS, f"in [1, {MAX_TRIALS}]"),
    "seed": (20240101, lambda v: v >= 0, "at least 0"),
    "threads": (1, lambda v: v >= 1, "at least 1"),
    # n_targets R selects the reference layout of R - 1 fixed scatter points
    # (``_LAYOUTS``); the moving target sweeps the grid
    "n_targets": (1, lambda v: v in _LAYOUTS, f"one of {', '.join(map(str, _LAYOUTS))}"),
    # custom fixed points, {"position": [x, y, z], "rcs_dbsm": r, "kind":
    # "human_like"|"object_like"|"absent"} each (``_scene``); when non-empty
    # it replaces the layout, and absent entries are checked, then left out
    "scene": ([], lambda v: all(isinstance(e, dict) for e in v), "a list of objects"),
    "classification_snr_db": ([-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0],
                              lambda v: len(v) > 0 and all(map(_db, v)),
                              f"a non-empty list of values {_DB}"),
}

RULES = {path: (test, want) for path, (_, test, want) in SCHEMA.items()}


def _nested(rows: dict) -> dict:
    """The document of the defaults of key-path rows, in their order; a
    path is a key or ``object.key``."""
    out = {}
    for path, (default, *_) in rows.items():
        parent, _, key = path.rpartition(".")
        (out.setdefault(parent, {}) if parent else out)[key] = default
    return out


DEFAULT_CONFIG: dict = _nested(SCHEMA)


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
    # the bounds and the echo see the panel on the BS boresight (angle 0), above
    # the BS; distinct as SceneGeometry measures d_s
    b, c = cfg["geometry"]["bs_center"], cfg["geometry"]["stcm_center"]
    if not (c[0] == b[0] and c[2] > b[2] and np.linalg.norm(np.subtract(b, c)) > 0):
        raise ConfigError("geometry.stcm_center must lie on the boresight above geometry.bs_center "
                          f"(same x, larger z), got {json.dumps(c)} and {json.dumps(b)}")
    geom = _geometry(cfg)
    grid_points(geom, cfg["grid_res_m"])
    for at, point in _scene(cfg, geom.bs_center):
        if terminal_mask(point.position, geom):
            raise ConfigError(f"{at} {json.dumps(point.position.tolist())} sits on "
                              "geometry.bs_center or geometry.stcm_center")


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
    carrier, rcs = cfg["carrier_hz"], cfg["rcs_dbsm"]
    ula = UlaLayout.half_wavelength(cfg["bs"]["antennas"], carrier)
    panel = PanelLayout.half_wavelength(cfg["panel"]["n_x"], cfg["panel"]["n_y"], carrier)
    return SystemModel(
        geom=_geometry(cfg), ula=ula, panel=panel,
        code=default_coding_matrix(panel, cfg["code"]["length"], cfg["code"]["period_s"]),
        harmonics=HarmonicSet(cfg["harmonics"]),
        pilots=dft_pilots(ula.m_antennas, dbm_to_watt(cfg["pilot_total_power_dbm"])),
        noise_power=dbm_to_watt(cfg["noise_power_dbm"]), sigma_nu=cfg["sigma_nu"],
        iota=cfg["path_loss_exponent"], p_fa=cfg["p_fa"], mode=WavelengthMode(cfg["wavelength_mode"]),
        hypotheses=HypothesisSet(rcs_sqrts=(0.0, rcs_sqrt_from_dbsm(rcs["human_like"]),
                                            rcs_sqrt_from_dbsm(rcs["object_like"]))),
        ris_profile=RisProfile(np.ones(panel.n_elements, dtype=complex)))


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


def _geometry(cfg: dict) -> SceneGeometry:
    g = cfg["geometry"]
    return SceneGeometry(bs_center=g["bs_center"], stcm_center=g["stcm_center"],
                         x_bounds=tuple(g["x_bounds"]), z_bounds=tuple(g["z_bounds"]))


def _scene(cfg: dict, bs_center: np.ndarray) -> list[tuple[str, ScatterPoint]]:
    """(its name in an error, point) of every fixed scatter point, absent ones
    included: each ``scene`` entry checked and built when there are any, else
    the ``_LAYOUTS`` points of ``n_targets``, each with unit sqrt-RCS
    (full-power reflection convention)."""
    if not cfg["scene"]:
        n = cfg["n_targets"]
        return [(f"n_targets {n} point", ScatterPoint(position=q, rcs_sqrt=1.0))
                for q in _LAYOUTS[n](bs_center)]
    out = []
    for i, entry in enumerate(cfg["scene"]):
        at = f"scene[{i}]"
        for k in entry:
            if k not in ("position", "rcs_dbsm", "kind"):
                raise ConfigError(f"unknown config key: {f'{at}.{k}'!r}")
        kind, rcs, pos = entry.get("kind", "object_like"), entry.get("rcs_dbsm"), entry.get("position")
        if kind not in _KINDS:
            raise ConfigError(f"{at}.kind must be one of {_KINDS}, got {json.dumps(kind)}")
        absent = kind == "absent"
        if not (absent and "rcs_dbsm" not in entry or _db(rcs)):
            raise ConfigError(f"{at}.rcs_dbsm must be a number {_DB}, got {json.dumps(rcs)}")
        if not _xyz(pos):
            raise ConfigError(f"{at}.position must be 3 finite numbers, got {json.dumps(pos)}")
        out.append((f"{at}.position", ScatterPoint(
            position=pos, rcs_sqrt=0.0 if absent else rcs_sqrt_from_dbsm(rcs), kind=TargetKind(kind))))
    return out


def fixed_scene(cfg: dict, model: SystemModel) -> list[ScatterPoint]:
    """The fixed scatter points that reflect, of a resolved config
    (:func:`_scene`): absent ``scene`` entries carry no echo and are left
    out.  The maps and the benchmark's output check both read this list."""
    return [p for _, p in _scene(cfg, model.geom.bs_center) if p.kind is not TargetKind.ABSENT]
