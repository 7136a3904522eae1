"""Experiment orchestration: the map/Monte-Carlo sweeps behind each CLI verb.

Every experiment consumes a resolved config dict, writes CSV data plus a
JSON manifest into the output directory, and returns the list of files it
wrote.  Variances are reported as 10 log10(rad^2); masked grid cells carry
an explicit boolean column.  The verbs sweep the grid and write rows; each
value comes from the one package function for that quantity (closed forms,
``MultiTargetFimBuilder``, ``peb_single``, ``crb_ris``, ``detection_map``).
Bound sweeps are pure functions of the cell, so optional process
parallelism (``threads``) cannot change results; assembly is by cell index,
independent of completion order.
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
    crb_alpha_closed,
    crb_ris,
    crb_xi_closed,
    crbs_from_fim,
    peb_multi_from_fims,
    peb_single,
)
from .channel import path_gains
from .classification import confusion_matrix, rayleigh_scale
from .config import SystemModel, build_model, config_hash, fixed_scene, grid_points
from .detection import Combiner, despread_regressor_at_angle, detection_map
from .errors import SensingError
from .geometry import ScatterPoint, TargetKind, angles_from_position
from .io import write_csv, write_manifest


def _db10(x: float) -> float:
    return 10.0 * math.log10(x)


def _target_state(q, model: SystemModel) -> TargetState:
    """Angles and unit-RCS, unit-fading bounce gains at position q."""
    point = ScatterPoint(position=np.asarray(q, dtype=float), rcs_sqrt=1.0,
                         kind=TargetKind.OBJECT_LIKE)
    ang = angles_from_position(point.position, model.geom)
    g = path_gains(point, model.geom, fading=1.0, wavelength=model.wavelength,
                   iota=model.iota)
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


def _or_none(fn, *args):
    """fn(*args), or None where the value is masked."""
    try:
        return fn(*args)
    except SensingError:
        return None


def _crb_xi(mov: TargetState, model: SystemModel):
    return _or_none(crb_xi_closed, mov.xi, mov.alpha, mov.db_gain, model.ula, model.panel,
                    model.code, model.harmonics, model.pilots, model.noise_power, model.mode)


def _crb_cell(q, model: SystemModel, builders):
    """CRBs for one moving-target cell; None marks a masked value."""
    mov = _or_none(_target_state, q, model)
    if mov is None:
        return None, None
    if builders[0] is None:
        return (_or_none(crb_alpha_closed, mov.alpha, mov.sb_gain, model.ula, model.pilots,
                         model.noise_power), _crb_xi(mov, model))
    out = []
    for builder in builders:
        try:
            val = float(crbs_from_fim(builder.fim(mov))[0])
            out.append(val if val > 0 else None)
        except SensingError:
            out.append(None)
    return tuple(out)


def _peb_cell(q, model: SystemModel, builders, fixed_pos):
    try:
        mov = _target_state(q, model)
        sb_builder, db_builder = builders
        if sb_builder is None:
            return peb_single(q, model.geom, model.ula, model.panel, model.code,
                              model.harmonics, model.pilots, model.noise_power,
                              mov.sb_gain, mov.db_gain, model.mode)
        positions = [q] + list(fixed_pos)
        return peb_multi_from_fims(sb_builder.fim(mov), db_builder.fim(mov),
                                   positions, model.geom, which=0)
    except SensingError:
        return None


def _ris_cell(q, model: SystemModel):
    mov = _or_none(_target_state, q, model)
    if mov is None:
        return None, None
    _, crb = crb_ris(mov.xi, mov.alpha, mov.db_gain, model.ris_profile,
                     model.panel, model.ula, model.pilots, model.noise_power)
    return (None if not np.isfinite(crb) else crb), _crb_xi(mov, model)


def _map_cells(cells, worker, threads: int):
    if threads <= 1:
        return [worker(c) for c in cells]
    chunk = max(1, len(cells) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, cells, chunksize=chunk))


def _cells(model: SystemModel, res: float):
    xs, zs = grid_points(model.geom, res)
    return [np.array([x, 0.0, z]) for z in zs for x in xs]


def run_crb_map(cfg: dict, out_dir: str) -> list[str]:
    """Angle-CRB maps over the scene for the configured target count."""
    model = build_model(cfg)
    builders = _builders(model, fixed_scene(cfg, model))
    cells = _cells(model, float(cfg["grid_res_m"]))
    worker = functools.partial(_crb_cell, model=model, builders=builders)
    values = _map_cells(cells, worker, int(cfg["threads"]))
    rows_a, rows_x = [], []
    for q, (ca, cx) in zip(cells, values):
        rows_a.append((float(q[0]), float(q[2]),
                       None if ca is None else _db10(ca), ca is None))
        rows_x.append((float(q[0]), float(q[2]),
                       None if cx is None else _db10(cx), cx is None))
    files = []
    for name, rows in (("crb_alpha", rows_a), ("crb_xi", rows_x)):
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
    worker = functools.partial(_peb_cell, model=model, builders=_builders(model, fixed),
                               fixed_pos=[p.position for p in fixed])
    values = _map_cells(cells, worker, int(cfg["threads"]))
    rows = [
        (float(q[0]), float(q[2]), v, v is None)
        for q, v in zip(cells, values)
    ]
    path = os.path.join(out_dir, "peb_map.csv")
    write_csv(path, ("x_m", "z_m", "peb_m", "masked"), rows)
    manifest = write_manifest(out_dir, "peb_map", config_hash(cfg), __version__, [path])
    return [path, manifest]


def run_detection_map(cfg: dict, out_dir: str) -> list[str]:
    """Marginal detection probability maps: 2 target types x 2 combiners."""
    model = build_model(cfg)
    cells = _cells(model, float(cfg["grid_res_m"]))
    scales = {label: functools.partial(rayleigh_scale, sigma, sigma_nu=model.sigma_nu,
                                       wavelength=model.wavelength, iota=model.iota)
              for label, sigma in (("human_like", model.hypotheses.rcs_sqrts[1]),
                                   ("object_like", model.hypotheses.rcs_sqrts[2]))}
    maps = detection_map(cells, model.geom, model.ula, model.pilots, model.noise_power,
                         model.p_fa, scales)
    files = []
    for (label, comb), pd in maps.items():
        rows = [
            (float(q[0]), float(q[2]), None if math.isnan(p) else float(p), label,
             comb.value, math.isnan(p))
            for q, p in zip(cells, pd)
        ]
        path = os.path.join(out_dir, f"detect_map_{label}_{comb.value}.csv")
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
    """Confusion rows versus mean SNR for both true target types."""
    model = build_model(cfg)
    n_trials = int(cfg["n_trials"])
    seed = int(cfg["seed"])
    rows = []
    for snr_db in cfg["classification_snr_db"]:
        for true_index, label in ((1, "human_like"), (2, "object_like")):
            gain_scale, est_var = classification_operating_point(model, snr_db, true_index)
            conf = confusion_matrix(gain_scale, model.hypotheses, est_var,
                                    n_trials=n_trials,
                                    seed=seed + 1000 * true_index, method="mc")
            p = conf[true_index]
            rows.append((float(snr_db), label, float(p[0]), float(p[1]), float(p[2]),
                         n_trials, seed))
    path = os.path.join(out_dir, "classification_mc.csv")
    write_csv(path, ("snr_db", "true_class", "p_h0", "p_h1", "p_h2", "n_trials", "seed"), rows)
    manifest = write_manifest(out_dir, "classification_mc", config_hash(cfg), __version__, [path])
    return [path, manifest]


def run_ris_compare(cfg: dict, out_dir: str) -> list[str]:
    """Fixed-profile linear-panel baseline CRB(xi) next to the switching panel."""
    model = build_model(cfg)
    cells = _cells(model, float(cfg["grid_res_m"]))
    worker = functools.partial(_ris_cell, model=model)
    values = _map_cells(cells, worker, int(cfg["threads"]))
    rows = []
    for q, (ris, stcm) in zip(cells, values):
        rows.append(
            (float(q[0]), float(q[2]),
             None if ris is None else _db10(ris), ris is None,
             None if stcm is None else _db10(stcm), stcm is None)
        )
    path = os.path.join(out_dir, "ris_compare.csv")
    write_csv(path, ("x_m", "z_m", "ris_crb_xi_db", "ris_masked",
                     "stcm_crb_xi_db", "stcm_masked"), rows)
    manifest = write_manifest(out_dir, "ris_compare", config_hash(cfg), __version__, [path])
    return [path, manifest]
