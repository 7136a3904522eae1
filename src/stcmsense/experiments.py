"""Experiment orchestration: the map/Monte-Carlo sweeps behind each CLI verb.

Every experiment consumes a resolved config dict, writes CSV data plus a
JSON manifest into the output directory, and returns the list of files it
wrote.  Variances are reported as 10 log10(rad^2); masked grid cells carry
an explicit boolean column.

The maps (crb-map, peb-map, ris-compare, detect-map) split the grid into
blocks of consecutive cells.  A block worker drops the terminal cells and
evaluates each quantity in one array pass over the rest.  With one target
the passes run the closed forms (``crb_alpha_cells``, ``crb_xi_cells``,
``peb_cells``, ``crb_ris_cells``) over blocks of ``BLOCK_CELLS`` cells.
With R > 1 targets, ``MultiTargetFimBuilder.fim_cells`` stacks the moving
target's (n, 3R, 3R) FIMs against the cached fixed targets, and
``crbs_cells`` and ``peb_multi_cells`` invert them; those matrices grow
with R, so the blocks hold max(1, BLOCK_CELLS // R) cells (25 at R = 10).
detect-map runs ``detection.detection_map`` on blocks of ``BLOCK_CELLS``
cells (one h2 pass per combiner, one p_D pass per map).  ``threads`` > 1
maps the blocks over up to that many worker processes.  Every value is a
pure function of its cell, so neither the block size nor ``threads``
changes a byte: blocks are joined in cell order, independent of
completion order.  classify-mc simulates only the confusion row it reports,
and draws each class's trials once for all of its SNR rows.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .bounds import (
    MultiTargetFimBuilder,
    TargetState,
    crb_alpha_cells,
    crb_ris_cells,
    crb_xi_cells,
    crbs_cells,
    peb_cells,
    peb_multi_cells,
)
from .channel import path_gains
from .classification import confusion_row, rayleigh_scale
from .config import SystemModel, build_model, config_hash, fixed_scene, grid_points
from .detection import Combiner, despread_regressor_at_angle, detection_map
from .geometry import ScatterPoint, angles_from_position, terminal_mask
from .io import write_csv, write_manifest

# Cells per array pass with one target (BLOCK_CELLS // R with R targets).
# Per-cell temporaries are (BLOCK_CELLS, M) arrays, so this bounds peak
# memory; values do not depend on it.
BLOCK_CELLS = 256


def _target_state(q, model: SystemModel) -> TargetState:
    """Angles and unit-RCS, unit-fading bounce gains at a point (3,), or as
    (n,) arrays at stacked points (n, 3)."""
    ang = angles_from_position(q, model.geom)
    g = path_gains(ScatterPoint(position=q, rcs_sqrt=1.0), model.geom, fading=1.0,
                   wavelength=model.wavelength, iota=model.iota)
    return TargetState(alpha=ang.alpha, xi=ang.xi, sb_gain=g.sb_gain, db_gain=g.db_gain)


def _builders(model: SystemModel, fixed):
    """(sb, db) FIM builders around the fixed scatter points; None without any."""
    if not fixed:
        return None, None
    states = [_target_state(p.position, model) for p in fixed]
    sb = MultiTargetFimBuilder(states, "sb", model.ula, model.pilots, model.noise_power)
    db = MultiTargetFimBuilder(states, "db", model.ula, model.pilots, model.noise_power,
                               model.panel, model.code, model.harmonics, model.mode)
    return sb, db


def _block(points, model: SystemModel, values, k: int) -> np.ndarray:
    """(k, n) rows of ``values(points, TargetState)`` over a block's
    non-terminal cells; terminal cells (no angles) stay NaN in every row."""
    out = np.full((k, len(points)), np.nan)
    live = ~terminal_mask(points, model.geom)
    if live.any():
        out[:, live] = values(points[live], _target_state(points[live], model))
    return out


def _crb_xi(s: TargetState, model: SystemModel):
    return crb_xi_cells(s.xi, s.alpha, s.db_gain, model.ula, model.panel, model.code,
                        model.harmonics, model.pilots, model.noise_power, model.mode)


def _crb_block(points, model: SystemModel, builders) -> np.ndarray:
    """(crb_alpha, crb_xi) rows for a block of cells; NaN marks a masked value."""
    def values(q, s):
        if builders[0] is None:
            return (crb_alpha_cells(s.alpha, s.sb_gain, model.ula, model.pilots,
                                    model.noise_power), _crb_xi(s, model))
        return [crbs_cells(b.fim_cells(s))[:, 0] for b in builders]
    out = _block(points, model, values, 2)
    out[out <= 0] = np.nan  # a non-positive numeric inverse is masked too
    return out


def _peb_block(points, model: SystemModel, builders) -> np.ndarray:
    def values(q, s):
        if builders[0] is None:
            return [peb_cells(q, s, model.geom, model.ula, model.panel, model.code,
                              model.harmonics, model.pilots, model.noise_power, model.mode)]
        return [peb_multi_cells(builders[0].fim_cells(s), builders[1].fim_cells(s), q, model.geom)]
    return _block(points, model, values, 1)


def _ris_block(points, model: SystemModel) -> np.ndarray:
    def values(q, s):
        _, ris = crb_ris_cells(s.xi, s.alpha, s.db_gain, model.ris_profile, model.panel,
                               model.ula, model.pilots, model.noise_power)
        return ris, _crb_xi(s, model)
    return _block(points, model, values, 2)


def _map_cells(points, worker, threads: int, n_targets: int = 1) -> np.ndarray:
    """worker over consecutive blocks of max(1, BLOCK_CELLS // n_targets)
    cells, joined in cell order; with threads > 1 a process pool (at most one
    process per block) maps the blocks."""
    size = max(1, BLOCK_CELLS // n_targets)
    blocks = [points[i:i + size] for i in range(0, len(points), size)]
    if threads <= 1:
        return np.concatenate([worker(b) for b in blocks], axis=-1)
    with ProcessPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
        return np.concatenate(list(pool.map(worker, blocks)), axis=-1)


def _cells(model: SystemModel, res: float) -> np.ndarray:
    """(n, 3) lattice points, x fastest."""
    xs, zs = grid_points(model.geom, res)
    x, z = np.meshgrid(xs, zs)
    return np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])


def _entry(v, db: bool = True) -> tuple:
    """(CSV value, masked flag) of one map value; variances in dB."""
    if np.isnan(v):
        return None, True
    return (10.0 * math.log10(v) if db else float(v)), False


def run_crb_map(cfg: dict, out_dir: str) -> list[str]:
    """Angle-CRB maps over the scene for the configured target count."""
    model = build_model(cfg)
    fixed = fixed_scene(cfg, model)
    cells = _cells(model, float(cfg["grid_res_m"]))
    worker = functools.partial(_crb_block, model=model, builders=_builders(model, fixed))
    values = _map_cells(cells, worker, int(cfg["threads"]), len(fixed) + 1)
    files = []
    for name, vals in zip(("crb_alpha", "crb_xi"), values):
        rows = [(float(q[0]), float(q[2]), *_entry(v)) for q, v in zip(cells, vals)]
        path = os.path.join(out_dir, f"{name}_map.csv")
        write_csv(path, ("x_m", "z_m", "crb_db", "masked"), rows)
        files.append(path)
    files.append(write_manifest(out_dir, "crb_map", config_hash(cfg), __version__, files))
    return files


def run_peb_map(cfg: dict, out_dir: str) -> list[str]:
    """Position-error-bound map (meters) for the moving target."""
    model = build_model(cfg)
    fixed = fixed_scene(cfg, model)
    cells = _cells(model, float(cfg["grid_res_m"]))
    worker = functools.partial(_peb_block, model=model, builders=_builders(model, fixed))
    values = _map_cells(cells, worker, int(cfg["threads"]), len(fixed) + 1)[0]
    rows = [(float(q[0]), float(q[2]), *_entry(v, db=False)) for q, v in zip(cells, values)]
    path = os.path.join(out_dir, "peb_map.csv")
    write_csv(path, ("x_m", "z_m", "peb_m", "masked"), rows)
    manifest = write_manifest(out_dir, "peb_map", config_hash(cfg), __version__, [path])
    return [path, manifest]


def _detect_block(points, model: SystemModel, scales: dict) -> np.ndarray:
    """(4, n) p_D rows for a block of cells, in ``detection_map`` key order."""
    maps = detection_map(points, model.geom, model.ula, model.pilots, model.noise_power,
                         model.p_fa, scales, tuple(Combiner))
    return np.array(list(maps.values()))


def run_detection_map(cfg: dict, out_dir: str) -> list[str]:
    """Marginal detection probability maps: 2 target types x 2 combiners."""
    model = build_model(cfg)
    cells = _cells(model, float(cfg["grid_res_m"]))
    scales = {label: functools.partial(rayleigh_scale, sigma, sigma_nu=model.sigma_nu,
                                       wavelength=model.wavelength, iota=model.iota)
              for label, sigma in (("human_like", model.hypotheses.rcs_sqrts[1]),
                                   ("object_like", model.hypotheses.rcs_sqrts[2]))}
    worker = functools.partial(_detect_block, model=model, scales=scales)
    values = _map_cells(cells, worker, int(cfg["threads"]))
    xz = cells[:, [0, 2]].tolist()
    files = []
    for (label, combiner), pd in zip([(label, c.value) for c in Combiner for label in scales],
                                     values):
        rows = [(x, z, None if math.isnan(p) else p, label, combiner, math.isnan(p))
                for (x, z), p in zip(xz, pd.tolist())]
        path = os.path.join(out_dir, f"detect_map_{label}_{combiner}.csv")
        write_csv(path, ("x_m", "z_m", "p_d", "sp_type", "combiner", "masked"), rows)
        files.append(path)
    files.append(write_manifest(out_dir, "detect_map", config_hash(cfg), __version__, files))
    return files


def classification_operating_point(model: SystemModel, snr_db: float, true_index: int):
    """(gain_scale, estimator_var) realizing the requested mean SNR.

    The matched-despread regressor energy is angle-independent for the
    orthogonal pilot block, so the mean SNR 2 tau^2 h2 / sigma_n^2 of the
    true class fixes the shared propagation factor G(d) sigma_nu at the cell.
    """
    reg = despread_regressor_at_angle(0.0, model.ula, model.pilots,
                                      Combiner.MATCHED_DESPREAD)
    h2 = reg.effective_norm_sq
    est_var = model.noise_power / h2
    sig = model.hypotheses.rcs_sqrts[true_index]
    snr = 10.0 ** (snr_db / 10.0)
    gain_scale = math.sqrt(snr * est_var) / sig
    return gain_scale, est_var


def run_classification_mc(cfg: dict, out_dir: str) -> list[str]:
    """Confusion rows versus mean SNR for both true target types.

    Each class draws its trials once, from ``seed + 1000 * true_index``, and
    every SNR row of that class rescales the same draws (common random
    numbers: the errors of neighbouring rows are correlated).
    """
    model = build_model(cfg)
    n_trials = int(cfg["n_trials"])
    seed = int(cfg["seed"])
    snrs = [float(snr_db) for snr_db in cfg["classification_snr_db"]]
    labels = {1: "human_like", 2: "object_like"}
    p = {}
    for j in labels:
        points = [classification_operating_point(model, snr_db, j) for snr_db in snrs]
        # only the gain moves with the SNR; the estimator variance does not
        p[j] = confusion_row(np.array([g for g, _ in points]), model.hypotheses, points[0][1], j,
                             n_trials=n_trials, seed=seed + 1000 * j)
    rows = [(snr_db, label, *p[j][k].tolist(), n_trials, seed)
            for k, snr_db in enumerate(snrs) for j, label in labels.items()]
    path = os.path.join(out_dir, "classification_mc.csv")
    write_csv(path, ("snr_db", "true_class", "p_h0", "p_h1", "p_h2", "n_trials", "seed"), rows)
    manifest = write_manifest(out_dir, "classification_mc", config_hash(cfg), __version__, [path])
    return [path, manifest]


def run_ris_compare(cfg: dict, out_dir: str) -> list[str]:
    """Fixed-profile linear-panel baseline CRB(xi) next to the switching panel."""
    model = build_model(cfg)
    cells = _cells(model, float(cfg["grid_res_m"]))
    worker = functools.partial(_ris_block, model=model)
    ris, stcm = _map_cells(cells, worker, int(cfg["threads"]))
    rows = [(float(q[0]), float(q[2]), *_entry(r), *_entry(x)) for q, r, x in zip(cells, ris, stcm)]
    path = os.path.join(out_dir, "ris_compare.csv")
    write_csv(path, ("x_m", "z_m", "ris_crb_xi_db", "ris_masked",
                     "stcm_crb_xi_db", "stcm_masked"), rows)
    manifest = write_manifest(out_dir, "ris_compare", config_hash(cfg), __version__, [path])
    return [path, manifest]
