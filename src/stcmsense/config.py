"""Experiment configuration: ingestion, validation and model assembly.

A single JSON document drives every experiment; the embedded default block
reproduces the reference simulation parameters (16-element ULA, 64-element
panel, 8-slot 2 us coding period, 10 GHz carrier, 12 dBm pilot block,
-120 dBm noise, 160 x 100 m scene with the panel 100 m above the BS).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import PilotMatrix, UlaLayout, dft_pilots
from .classification import HypothesisSet
from .constants import MAX_GRID_CELLS
from .errors import ConfigError
from .geometry import SceneGeometry, ScatterPoint, TargetKind, rcs_sqrt_from_dbsm
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


def merge_config(overrides: dict | None) -> dict:
    """Defaults overlaid with a (possibly partial) override document."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)

    def merge(dst, src):
        for k, v in src.items():
            if k not in dst:
                raise ConfigError(f"unknown config key: {k!r}")
            if isinstance(dst[k], dict) and isinstance(v, dict):
                merge(dst[k], v)
            else:
                dst[k] = v

    if overrides:
        merge(cfg, overrides)
    return cfg


def load_config(path=None, overrides: dict | None = None) -> dict:
    doc = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    return merge_config({**doc, **(overrides or {})})


def config_hash(cfg: dict) -> str:
    """Stable digest of the fully-resolved configuration."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
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
    ris_profile: RisProfile = field(default_factory=RisProfile)

    @property
    def wavelength(self) -> float:
        return self.ula.wavelength


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_numbers(cfg: dict, defaults: dict = DEFAULT_CONFIG, prefix: str = "") -> None:
    """Every key whose default is a number must hold a finite number, and an
    integral one where the default is an integer (a count or a seed); every
    ``geometry`` vector must hold as many finite numbers as its default, and
    ``classification_snr_db`` at least one finite number."""
    for key, default in defaults.items():
        path, v = prefix + key, cfg[key]
        if isinstance(default, dict):
            if not isinstance(v, dict):
                raise ConfigError(f"{path} must be an object, got {json.dumps(v)}")
            _check_numbers(v, default, path + ".")
        elif isinstance(default, (int, float)) and (
                not _number(v) or (isinstance(default, int) and v != int(v))):
            what = "an integer" if isinstance(default, int) else "a finite number"
            raise ConfigError(f"{path} must be {what}, got {json.dumps(v)}")
        elif prefix == "geometry." and not (
                isinstance(v, list) and len(v) == len(default) and all(map(_number, v))):
            raise ConfigError(f"{path} must be {len(default)} finite numbers, got {json.dumps(v)}")
        elif path == "classification_snr_db" and not (
                isinstance(v, list) and v and all(map(_number, v))):
            raise ConfigError(f"{path} must be a non-empty list of finite numbers, got {json.dumps(v)}")


def _check_ranges(cfg: dict) -> None:
    """Counts in range (the Kronecker pilots need a square antenna count), a
    positive carrier, known mode."""
    if not cfg["carrier_hz"] > 0:
        raise ConfigError(f"carrier_hz must be positive, got {json.dumps(cfg['carrier_hz'])}")
    m = cfg["bs"]["antennas"]
    if m < 1 or math.isqrt(int(m)) ** 2 != m:
        raise ConfigError(f"bs.antennas must be a positive perfect square, got {json.dumps(m)}")
    for path, v, low in (("harmonics", cfg["harmonics"], 0), ("panel.n_x", cfg["panel"]["n_x"], 1),
                         ("panel.n_y", cfg["panel"]["n_y"], 1), ("code.length", cfg["code"]["length"], 2)):
        if v < low:
            raise ConfigError(f"{path} must be at least {low}, got {json.dumps(v)}")
    modes = [w.value for w in WavelengthMode]
    if cfg["wavelength_mode"] not in modes:
        raise ConfigError(f"wavelength_mode must be one of {modes}, got {json.dumps(cfg['wavelength_mode'])}")


def build_model(cfg: dict) -> SystemModel:
    _check_numbers(cfg)
    _check_ranges(cfg)
    g = cfg["geometry"]
    geom = SceneGeometry(
        bs_center=np.asarray(g["bs_center"], dtype=float),
        stcm_center=np.asarray(g["stcm_center"], dtype=float),
        x_bounds=tuple(g["x_bounds"]),
        z_bounds=tuple(g["z_bounds"]),
    )
    carrier = float(cfg["carrier_hz"])
    ula = UlaLayout.half_wavelength(int(cfg["bs"]["antennas"]), carrier)
    panel = PanelLayout.half_wavelength(int(cfg["panel"]["n_x"]), int(cfg["panel"]["n_y"]), carrier)
    code = default_coding_matrix(panel, int(cfg["code"]["length"]), float(cfg["code"]["period_s"]))
    harmonics = HarmonicSet(int(cfg["harmonics"]))
    pilots = dft_pilots(ula.m_antennas, dbm_to_watt(float(cfg["pilot_total_power_dbm"])))
    mode = WavelengthMode(cfg["wavelength_mode"])
    hyp = HypothesisSet(
        rcs_sqrts=(
            0.0,
            rcs_sqrt_from_dbsm(float(cfg["rcs_dbsm"]["human_like"])),
            rcs_sqrt_from_dbsm(float(cfg["rcs_dbsm"]["object_like"])),
        )
    )
    return SystemModel(
        geom=geom,
        ula=ula,
        panel=panel,
        code=code,
        harmonics=harmonics,
        pilots=pilots,
        noise_power=dbm_to_watt(float(cfg["noise_power_dbm"])),
        sigma_nu=float(cfg["sigma_nu"]),
        iota=float(cfg["path_loss_exponent"]),
        p_fa=float(cfg["p_fa"]),
        mode=mode,
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
        raise ConfigError(f"grid_res_m {res_m} m asks for more than {MAX_GRID_CELLS} grid cells")
    return (geom.x_bounds[0] + res_m * np.arange(counts[0]),
            geom.z_bounds[0] + res_m * np.arange(counts[1]))


def scene_from_config(cfg: dict) -> list[ScatterPoint]:
    """Explicit scatter points from the ``scene`` config block."""
    points = []
    for entry in cfg.get("scene", []):
        kind = TargetKind(entry.get("kind", "object_like"))
        rcs = rcs_sqrt_from_dbsm(float(entry["rcs_dbsm"])) if kind is not TargetKind.ABSENT else 0.0
        points.append(ScatterPoint(position=np.asarray(entry["position"], dtype=float),
                                   rcs_sqrt=rcs, kind=kind))
    return points


def fixed_scene(cfg: dict, model: SystemModel) -> list[ScatterPoint]:
    """Fixed scatter points for the configured target count.

    An explicit ``scene`` block wins; otherwise the named layouts apply,
    with unit sqrt-RCS for every target (full-power reflection convention).
    The ten-target ring places nine targets at -72..72 degrees in 18-degree
    steps, 50 m from the BS.
    """
    if cfg.get("scene"):
        return scene_from_config(cfg)
    n = int(cfg["n_targets"])
    if n == 1:
        return []
    if n == 2:
        spots = [np.asarray(p, dtype=float) for p in cfg["fixed_targets"]["two"]]
    elif n == 10:
        placement = cfg["fixed_targets"]["ten"]
        if placement == "angular_ring":
            angles = np.deg2rad(np.arange(-72.0, 72.1, 18.0))
            spots = [
                model.geom.bs_center + 50.0 * np.array([np.sin(a), 0.0, np.cos(a)])
                for a in angles
            ]
        else:
            spots = [np.asarray(p, dtype=float) for p in placement]
    else:
        raise ConfigError("n_targets must be one of 1, 2, 10")
    return [
        ScatterPoint(position=p, rcs_sqrt=1.0, kind=TargetKind.OBJECT_LIKE)
        for p in spots
    ]
