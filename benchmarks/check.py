"""Output check of one experiment call against the independent reference.

Runs in run.py, outside every timed region.  For each map file a seeded
sample of rows (random cells plus masked cells) is recomputed by oracle.py:

* the row count and the sampled coordinates must match the lattice;
* masks must agree exactly (a decision whose condition number sits within
  rounding of the 1e12 limit is undecidable and only counted);
* values must agree to a relative 1e-12 plus the forward-error bound of the
  inversions behind them, 64 * kappa * eps, where kappa is the largest
  scaled condition number the reference met.  For well-conditioned cells
  (kappa below about 70) this is the 1e-12 gate itself.

Detection maps are checked against the Rayleigh-marginal closed form and
classify-mc rows against a six-sigma binomial band around the exact
decision rates.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

from oracle import EPS, ROUNDING_SLACK, Reference
from workloads import lattice

REL_TOL = 1e-12
RANDOM_ROWS = 16
MASKED_ROWS = 8
DETECT_ROWS = 48
BAND_SIGMAS = 6.0
BAND_SLACK_COUNTS = 6.0

# file -> [(value column, mask column, reference name, dB-encoded)]
MAP_FILES = {
    "crb-map": {
        "crb_alpha_map.csv": [("crb_db", "masked", "crb_alpha", True)],
        "crb_xi_map.csv": [("crb_db", "masked", "crb_xi", True)],
    },
    "peb-map": {"peb_map.csv": [("peb_m", "masked", "peb", False)]},
    "ris-compare": {
        "ris_compare.csv": [("ris_crb_xi_db", "ris_masked", "ris", True),
                            ("stcm_crb_xi_db", "stcm_masked", "stcm_xi", True)],
    },
}
# file -> (target type, combiner) of the rows it holds
DETECT_FILES = {f"detect_map_{label}_{comb}.csv": (label, comb)
                for comb in ("all_ones", "matched") for label in ("human_like", "object_like")}
MANIFESTS = {"crb-map": "crb_map_manifest.json", "peb-map": "peb_map_manifest.json",
             "ris-compare": "ris_compare_manifest.json",
             "detect-map": "detect_map_manifest.json",
             "classify-mc": "classification_mc_manifest.json"}


@dataclass
class Result:
    problems: list[str] = field(default_factory=list)
    cells_checked: int = 0
    undecidable: int = 0
    # (file, row index, value column, mask column, tolerance) per compared value
    compared: list[tuple] = field(default_factory=list)
    masked_values: int = 0


class Checker:
    def __init__(self, seed: int, model_data):
        """``model_data(cfg)`` returns the raw data the package built from
        the resolved config: coding matrix entries, pilot block, hypothesis
        priors and the fixed scatterers' positions."""
        self.seed = seed
        self.model_data = model_data
        self._refs = {}

    def reference(self, cfg: dict) -> Reference:
        key = repr(sorted(cfg.items()))
        if key not in self._refs:
            code, pilots, priors, fixed = self.model_data(cfg)
            self._refs[key] = (Reference(cfg, code, pilots), priors, fixed)
        return self._refs[key]

    def check(self, verb: str, cfg: dict, out_dir: str) -> Result:
        res = Result()
        files = list(MAP_FILES.get(verb, {}))
        if verb == "detect-map":
            files = list(DETECT_FILES)
        elif verb == "classify-mc":
            files = ["classification_mc.csv"]
        for name in files + [MANIFESTS[verb]]:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                res.problems.append(f"{name}: missing or empty")
        if res.problems:
            return res
        ref, priors, fixed = self.reference(cfg)
        if verb in MAP_FILES:
            for name, columns in MAP_FILES[verb].items():
                self._check_map(res, ref, fixed, cfg, os.path.join(out_dir, name), columns)
        elif verb == "detect-map":
            for name in DETECT_FILES:
                self._check_detect(res, ref, cfg, os.path.join(out_dir, name))
        else:
            self._check_classify(res, ref, priors, cfg, os.path.join(out_dir, files[0]))
        return res

    # --- maps -------------------------------------------------------------
    def _rows(self, res: Result, path: str, cfg: dict):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        xs, zs = lattice(cfg)
        if len(rows) != len(xs) * len(zs):
            res.problems.append(f"{os.path.basename(path)}: {len(rows)} rows, "
                                f"expected {len(xs) * len(zs)}")
            return None, None
        return rows, [(x, z) for z in zs for x in xs]

    def _sample(self, path: str, rows, mask_cols) -> list[int]:
        rng = random.Random(f"{self.seed}:{os.path.basename(path)}")
        picked = set(rng.sample(range(len(rows)), min(RANDOM_ROWS, len(rows))))
        masked = [i for i, r in enumerate(rows) if any(r[c] == "true" for c in mask_cols)]
        picked.update(rng.sample(masked, min(MASKED_ROWS, len(masked))))
        return sorted(picked)

    def _check_map(self, res, ref, fixed, cfg, path, columns):
        name = os.path.basename(path)
        rows, cells = self._rows(res, path, cfg)
        if rows is None:
            return
        res.masked_values += sum(r[m] == "true" for r in rows for _, m, _, _ in columns)
        for i in self._sample(path, rows, [m for _, m, _, _ in columns]):
            row, (x, z) = rows[i], cells[i]
            if not _on_lattice(res, name, i, row, x, z):
                continue
            expected = _reference_values(ref, (x, 0.0, z), fixed, [c[2] for c in columns])
            for (col, mask_col, _, in_db), (want, cond) in zip(columns, expected):
                self._compare(res, name, i, row, col, mask_col, in_db, want, cond)

    def _compare(self, res, name, i, row, col, mask_col, in_db, want, cond):
        where = f"{name} row {i} {col}"
        masked = row[mask_col]
        if masked not in ("true", "false") or (masked == "true") != (row[col] == ""):
            res.problems.append(f"{where}: mask {masked!r} inconsistent with value {row[col]!r}")
            return
        if cond is not None and cond.borderline:
            res.undecidable += 1
            return
        if (masked == "true") != (want is None):
            res.problems.append(f"{where}: masked={masked}, reference "
                                f"{'masks' if want is None else f'gives {want!r}'}")
            return
        if want is None:
            return
        got = float(row[col])
        if in_db:
            got = 10.0 ** (got / 10.0)
        kappa = cond.kappa if cond is not None else 1.0
        tol = REL_TOL + ROUNDING_SLACK * kappa * EPS
        res.compared.append((name, i, col, mask_col, tol))
        err = abs(got - want) / abs(want)
        if not err <= tol:
            res.problems.append(f"{where}: {got!r} vs reference {want!r} "
                                f"(relative {err:.2e} > {tol:.2e})")

    # --- detection --------------------------------------------------------
    def _check_detect(self, res, ref, cfg, path):
        name = os.path.basename(path)
        rows, cells = self._rows(res, path, cfg)
        if rows is None:
            return
        label, comb = DETECT_FILES[name]
        rng = random.Random(f"{self.seed}:{name}")
        picked = set(rng.sample(range(len(rows)), min(DETECT_ROWS, len(rows))))
        picked.update(i for i, r in enumerate(rows) if r["masked"] == "true")
        for i in sorted(picked):
            row, (x, z) = rows[i], cells[i]
            if (row["sp_type"], row["combiner"]) != (label, comb):
                res.problems.append(f"{name} row {i}: labelled {row['sp_type']}/{row['combiner']}")
                continue
            if not _on_lattice(res, name, i, row, x, z):
                continue
            want, cond = ref.pd((x, 0.0, z), label, comb)
            self._compare(res, name, i, row, "p_d", "masked", False, want, cond)

    # --- classification ---------------------------------------------------
    def _check_classify(self, res, ref, priors, cfg, path):
        name = os.path.basename(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        snrs = [float(s) for s in cfg["classification_snr_db"]]
        expected = [(s, label) for s in snrs for label in ("human_like", "object_like")]
        got = [(float(r["snr_db"]), r["true_class"]) for r in rows]
        if got != expected:
            res.problems.append(f"{name}: rows {got} are not the (SNR, class) grid")
            return
        n = int(cfg["n_trials"])
        for i, row in enumerate(rows):
            if int(row["n_trials"]) != n or int(row["seed"]) != int(cfg["seed"]):
                res.problems.append(f"{name} row {i}: n_trials/seed {row['n_trials']}/{row['seed']}")
                continue
            true_index = 1 if row["true_class"] == "human_like" else 2
            exact = ref.confusion_row(float(row["snr_db"]), true_index, priors)
            res.cells_checked += 1
            for k, p in enumerate(exact):
                count = float(row[f"p_h{k}"]) * n
                band = BAND_SIGMAS * math.sqrt(n * p * (1.0 - p)) + BAND_SLACK_COUNTS
                res.compared.append((name, i, f"p_h{k}", None, band / n))
                if not abs(count - n * p) <= band:
                    res.problems.append(f"{name} row {i} p_h{k}: {row[f'p_h{k}']} outside "
                                        f"{p:.6f} +- {band / n:.2e}")


def _on_lattice(res: Result, name: str, i: int, row: dict, x: float, z: float) -> bool:
    """Whether row i holds lattice cell (x, z); counts the cell as checked."""
    if (float(row["x_m"]), float(row["z_m"])) != (x, z):
        res.problems.append(f"{name} row {i}: cell ({row['x_m']}, {row['z_m']}) "
                            f"is not lattice cell ({x!r}, {z!r})")
        return False
    res.cells_checked += 1
    return True


def _reference_values(ref: Reference, q, fixed, names):
    """(value, conditioning) from the reference for each named column."""
    compute = {
        "crb_alpha": lambda: ref.crbs(q, fixed)[0],
        "crb_xi": lambda: ref.crbs(q, fixed)[1],
        "stcm_xi": lambda: ref.crbs(q, [])[1],
        "peb": lambda: ref.peb(q, fixed),
        "ris": lambda: ref.ris_crb(q),
    }
    return [compute[name]() for name in names]
