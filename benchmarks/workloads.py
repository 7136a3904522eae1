"""Workload definitions shared by the benchmark runner (run.py) and its child passes.

A workload is a fixed list of experiment calls on the default scene.  The
benchmark seed is the only input that varies: it becomes the config
``seed``, which drives the classify-mc draws.  The map lattices are the
reference lattices for every seed, so every seed does the same map work.
"""

from __future__ import annotations

# (verb, config overrides) per workload.  Grid resolutions and target
# counts are the reference configs the experiments are quoted at.
WORKLOADS = {
    "single-target-maps": [
        ("crb-map", {"n_targets": 1, "grid_res_m": 2.0}),
        ("peb-map", {"n_targets": 1, "grid_res_m": 2.0}),
        ("ris-compare", {"n_targets": 1, "grid_res_m": 2.0}),
    ],
    "multi-target-maps": [
        ("crb-map", {"n_targets": 10, "grid_res_m": 4.0}),
        ("peb-map", {"n_targets": 10, "grid_res_m": 4.0}),
    ],
    "detect-classify": [
        ("detect-map", {"grid_res_m": 1.0}),
        ("classify-mc", {"n_trials": 200_000}),
    ],
}

# Coarse stand-ins for the span-coverage self-check: same verbs and code
# paths, a few dozen cells each.
SMALL_GRID_RES_M = 20.0
SMALL_TRIALS = 2_000

MAP_VERBS = ("crb-map", "peb-map", "ris-compare", "detect-map")

RUNNERS = {
    "crb-map": "run_crb_map",
    "peb-map": "run_peb_map",
    "ris-compare": "run_ris_compare",
    "detect-map": "run_detection_map",
    "classify-mc": "run_classification_mc",
}


def overrides(workload: str, seed: int, small: bool = False) -> list[tuple[str, dict]]:
    """(verb, config overrides) for every experiment call of one pass."""
    calls = []
    for verb, base in WORKLOADS[workload]:
        ov = dict(base, threads=1, seed=seed % 2**32)
        if small:
            if "grid_res_m" in ov:
                ov["grid_res_m"] = SMALL_GRID_RES_M
            if "n_trials" in ov:
                ov["n_trials"] = SMALL_TRIALS
        calls.append((verb, ov))
    return calls


def grid_cells(cfg: dict) -> int:
    """Cell count of a map call, from its resolved config."""
    xs, zs = lattice(cfg)
    return len(xs) * len(zs)


def mc_draws(cfg: dict) -> int:
    """Monte-Carlo draws classify-mc reports: n_trials per (SNR, class) row."""
    return int(cfg["n_trials"]) * len(cfg["classification_snr_db"]) * 2


def lattice(cfg: dict) -> tuple[list[float], list[float]]:
    """Expected x and z coordinates of a map call (resolved config), in CSV
    row order."""
    res = cfg["grid_res_m"]
    x0, x1 = cfg["geometry"]["x_bounds"]
    z0, z1 = cfg["geometry"]["z_bounds"]
    nx = int(round((x1 - x0) / res)) + 1
    nz = int(round((z1 - z0) / res)) + 1
    return [x0 + res * i for i in range(nx)], [z0 + res * j for j in range(nz)]

