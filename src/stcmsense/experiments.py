"""Experiment orchestration: the map/Monte-Carlo sweeps behind each CLI verb.

Every experiment consumes a resolved config dict, writes CSV data plus a
JSON manifest into the output directory, and returns the list of files it
wrote.  Variances are reported as 10 log10(rad^2); masked grid cells carry
an explicit boolean column.

The maps (crb-map, peb-map, ris-compare, detect-map) split the grid into
blocks of ``BLOCK_CELLS // R`` consecutive cells, R targets (1 for detect-map).
A block worker drops the terminal cells and evaluates each quantity in one
array pass over the rest, a factor of one bearing once per distinct bearing
(``channel._per_angle``).  Each bound map builds one ``MultiTargetFimBuilder``
around the fixed targets.  crb-map and peb-map take the CRBs and the angle
EFIMs of its (sb, db) paths of ``channel.PATHS`` (``crbs``, ``peb_cells``) at
every R: it inverts each path's fixed FIM block once per map and forms the moving
target's three FIM rows per cell, or reads the gain Schur complement of its
column Grams with no fixed target.  ris-compare is crb-map's block over two
double-bounce paths with no fixed target, (baseline, switching panel); the
baseline's harmonic factor is the fixed profile's one response, so its
column is masked at every cell (rho = 1 up to rounding).
``threads`` > 1 maps the blocks over up to that many worker processes, no
more than one per block or CPU, and cuts a map into at least that many
blocks; only then is the process pool imported.  Every value is a pure
function of its cell, so no block or chunk size nor ``threads`` changes a
byte: blocks are joined in cell order, independent of completion order.
Map CSVs are columns of ready strings (``io.format_column``): each distinct
coordinate, value (dB taken first) and mask flag of a column is formatted
once and gathered per cell; constant columns are strings.
classify-mc simulates only the confusion row it reports, draws each class's
trials once for all of its SNR rows, and labels each trial by comparing its
|beta_hat|^2 with the squared MAP region edges, without evaluating a density.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

from . import __version__
from .bounds import MultiTargetFimBuilder, _patterns, _unit, peb_cells
from .channel import _target_state
from .classification import confusion_row, rayleigh_scale
from .config import SystemModel, build_model, config_hash, fixed_scene, grid_points
from .detection import Combiner, detection_map, effective_energy_cells
from .geometry import terminal_mask
from .io import format_column, write_csv, write_manifest
from .metasurface import _ris_terms

# Cells per array pass at one target, BLOCK_CELLS // R at R; with angle-only
# factors ANGLE_CHUNK bearings a call, this bounds peak memory, not values.
BLOCK_CELLS = 2560


def _builder(model: SystemModel, fixed, first=("sb", _unit)) -> MultiTargetFimBuilder:
    """FIM builder over the paths (``first``, switching-panel db) around the
    fixed scatter points of ``config.fixed_scene``, each with its own RCS."""
    states = [_target_state(p.position, model, p.rcs_sqrt) for p in fixed]
    panel = functools.partial(_patterns, model.panel, model.code, model.harmonics, model.mode)
    return MultiTargetFimBuilder(states, [first, ("db", panel)], model.ula, model.pilots,
                                 model.noise_power)


def _block(points, model: SystemModel, values, k: int) -> np.ndarray:
    """(k, n) rows of ``values(points, TargetState)`` over a block's
    non-terminal cells; terminal cells (no angles) stay NaN in every row."""
    out = np.full((k, len(points)), np.nan)
    live = ~terminal_mask(points, model.geom)
    if live.any():
        out[:, live] = values(points[live], _target_state(points[live], model))
    return out


def _crb_block(points, model: SystemModel, builder) -> np.ndarray:
    """A CRB row per path, (crb_alpha, crb_xi) for crb-map, for a block of
    cells; NaN marks a masked value."""
    out = _block(points, model, lambda q, s: builder.crbs(s), 2)
    out[out <= 0] = np.nan  # a non-positive numeric inverse is masked too
    return out


def _peb_block(points, model: SystemModel, builder) -> np.ndarray:
    return _block(points, model, lambda q, s: [peb_cells(builder, s, q, model.geom)], 1)


def ProcessPoolExecutor(max_workers: int):
    """A process pool, imported on first use: threads 1 never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _map_cells(cfg: dict, model: SystemModel, block, **kwargs) -> tuple[np.ndarray, list[str]]:
    """``block(points, model=model, **kwargs)`` over blocks of BLOCK_CELLS // R
    lattice cells (x fastest; R the ``builder``'s targets), joined in cell order,
    and each cell's ``"x,z"`` CSV fields, formatting each distinct coordinate
    once.  With threads > 1 a pool of at most one process per block and per
    CPU maps the blocks, at least one block per process."""
    xs, zs = grid_points(model.geom, cfg["grid_res_m"])
    x, z = np.meshgrid(xs, zs)
    points = np.column_stack([x.ravel(), np.zeros(x.size), z.ravel()])
    cpus = min(cfg["threads"], os.cpu_count() or 1)
    r = kwargs["builder"].n_targets if "builder" in kwargs else 1
    size = max(1, min(BLOCK_CELLS // r, len(points) // cpus))
    blocks = [points[i:i + size] for i in range(0, len(points), size)]
    worker = functools.partial(block, model=model, **kwargs)
    workers = min(cpus, len(blocks))
    if workers <= 1:
        values = [worker(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(worker, blocks))
    x_csv, z_csv = format_column(xs), format_column(zs)
    return np.concatenate(values, axis=-1), [f"{a},{b}" for b in z_csv for a in x_csv]


def _column(vals: np.ndarray, db: bool = True) -> tuple[list[str], list[str]]:
    """(CSV values, masked flags) of one map column, empty where NaN;
    variances in dB."""
    return format_column(vals, db=db), format_column(np.isnan(vals))


def _write(out_dir: str, experiment: str, cfg: dict, tables) -> list[str]:
    """Each (file name, header, field columns) of ``tables`` as a CSV, then the manifest."""
    files = []
    for name, header, columns in tables:
        files.append(os.path.join(out_dir, name))
        write_csv(files[-1], header, list(zip(*columns)))
    return files + [write_manifest(out_dir, experiment, config_hash(cfg), __version__, files)]


def run_crb_map(cfg: dict, out_dir: str) -> list[str]:
    """Angle-CRB maps over the scene for the configured target count."""
    model = build_model(cfg)
    values, xz = _map_cells(cfg, model, _crb_block,
                            builder=_builder(model, fixed_scene(cfg, model)))
    return _write(out_dir, "crb_map", cfg, (
        (f"{name}_map.csv", ("x_m", "z_m", "crb_db", "masked"), (xz, *_column(vals)))
        for name, vals in zip(("crb_alpha", "crb_xi"), values)))


def run_peb_map(cfg: dict, out_dir: str) -> list[str]:
    """Position-error-bound map (meters) for the moving target."""
    model = build_model(cfg)
    (values,), xz = _map_cells(cfg, model, _peb_block,
                               builder=_builder(model, fixed_scene(cfg, model)))
    return _write(out_dir, "peb_map", cfg, [
        ("peb_map.csv", ("x_m", "z_m", "peb_m", "masked"), (xz, *_column(values, db=False)))])


def _detect_block(points, model: SystemModel, scales: dict) -> np.ndarray:
    """(4, n) p_D rows for a block of cells, in ``detection_map`` key order."""
    maps = detection_map(points, model.geom, model.ula, model.pilots, model.noise_power,
                         model.p_fa, scales, tuple(Combiner))
    return np.array(list(maps.values()))


def run_detection_map(cfg: dict, out_dir: str) -> list[str]:
    """Marginal detection probability maps: 2 target types x 2 combiners."""
    model = build_model(cfg)
    scales = {label: functools.partial(rayleigh_scale, sigma, sigma_nu=model.sigma_nu,
                                       wavelength=model.wavelength, iota=model.iota)
              for label, sigma in (("human_like", model.hypotheses.rcs_sqrts[1]),
                                   ("object_like", model.hypotheses.rcs_sqrts[2]))}
    values, xz = _map_cells(cfg, model, _detect_block, scales=scales)
    kinds = [(label, c.value) for c in Combiner for label in scales]
    columns = (_column(pd, db=False) for pd in values)
    return _write(out_dir, "detect_map", cfg, (
        (f"detect_map_{label}_{combiner}.csv",
         ("x_m", "z_m", "p_d", "sp_type", "combiner", "masked"),
         (xz, p_d, itertools.repeat(f"{label},{combiner}"), masked))
        for (label, combiner), (p_d, masked) in zip(kinds, columns)))


def classification_operating_point(model: SystemModel, snr_db: float, true_index: int):
    """(gain_scale, estimator_var) realizing the requested mean SNR.

    The matched-despread regressor energy is angle-independent for the
    orthogonal pilot block, so the mean SNR 2 tau^2 h2 / sigma_n^2 of the
    true class fixes the shared propagation factor G(d) sigma_nu at the cell.
    """
    h2 = float(effective_energy_cells([0.0], model.ula, model.pilots,
                                      Combiner.MATCHED_DESPREAD)[0])
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
    n_trials, seed, snrs = cfg["n_trials"], cfg["seed"], cfg["classification_snr_db"]
    labels = {1: "human_like", 2: "object_like"}
    p = {}
    for j in labels:
        points = [classification_operating_point(model, snr_db, j) for snr_db in snrs]
        # only the gain moves with the SNR; the estimator variance does not
        p[j] = confusion_row(np.array([g for g, _ in points]), model.hypotheses, points[0][1], j,
                             n_trials=n_trials, seed=seed + 1000 * j)
    rows = [(snr_db, label, *p[j][k].tolist(), n_trials, seed)
            for k, snr_db in enumerate(snrs) for j, label in labels.items()]
    header = ("snr_db", "true_class", "p_h0", "p_h1", "p_h2", "n_trials", "seed")
    return _write(out_dir, "classification_mc", cfg,
                  [("classification_mc.csv", header, map(format_column, zip(*rows)))])


def run_ris_compare(cfg: dict, out_dir: str) -> list[str]:
    """Fixed-profile linear-panel baseline CRB(xi) next to the switching panel."""
    model = build_model(cfg)
    baseline = functools.partial(_ris_terms, model.ris_profile, model.panel, phi_fixed=0.0)
    (ris, stcm), xz = _map_cells(cfg, model, _crb_block,
                                 builder=_builder(model, (), ("db", baseline)))
    header = ("x_m", "z_m", "ris_crb_xi_db", "ris_masked", "stcm_crb_xi_db", "stcm_masked")
    return _write(out_dir, "ris_compare", cfg,
                  [("ris_compare.csv", header, (xz, *_column(ris), *_column(stcm)))])
