"""stcmsense benchmark: map and Monte-Carlo workloads, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every workload pass runs in a fresh single-threaded
child process (child.py) that calls the public
``stcmsense.experiments.run_*`` functions into an empty directory under
``.bench_out/``.  Outputs are checked against an independent reference
(check.py, oracle.py) after each pass, outside the timed region.

``--trace 0`` measures end-to-end metrics: set-up time (median of several
cold starts), then as many passes as fit in S seconds (at least one),
reporting medians.  Every time reported is scaled to the reference host
speed: measured seconds times the ``speed`` its child measured with a fixed
calibration task around the timed work (see child.py).  The shared host
drifts by tens of percent over minutes; the calibration drifts with it and
the package cannot move it.  Measured times are printed alongside.  ``--trace 1`` runs one untraced pass (per-experiment times) and
one pass with every layer wrapped in spans (tracer.py), and checks on a
coarse grid that the span counts equal a cProfile count.  Both modes run
the checker self-test.  Every metric is printed with its unit; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Pin every BLAS pool before numpy is imported here or in any child.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import LAYERS  # noqa: E402
from workloads import MAP_VERBS, WORKLOADS, grid_cells, mc_draws, overrides  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 7
DEADLINE_S = 170.0
VERB_METRICS = {"crb-map": "crb_map_s", "peb-map": "peb_map_s", "ris-compare": "ris_compare_s",
                "detect-map": "detect_map_s", "classify-mc": "classify_mc_s"}
BOUND_VERBS = ("crb-map", "peb-map", "ris-compare")


class Runner:
    def __init__(self, args):
        from stcmsense.config import load_config

        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
        # (verb, resolved config) per experiment call of a pass
        self.calls = [(verb, load_config(overrides=ov))
                      for verb, ov in overrides(args.workload, args.seed)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cells_checked = 0
        self.undecidable = 0
        self.checker = None
        self.env = dict(os.environ, PYTHONPATH=SRC)

    # --- children ---------------------------------------------------------
    def child(self, *argv) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *argv,
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time budget exhausted")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child {' '.join(argv)} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, tag: str, *extra) -> dict:
        out = os.path.join(self.work, tag)
        os.makedirs(out)
        return self.child("pass", "--out", out, *extra)

    # --- checking ---------------------------------------------------------
    def checker_for(self):
        if self.checker is None:
            from check import Checker
            from stcmsense.config import build_model, fixed_scene

            def model_data(cfg):
                model = build_model(cfg)
                fixed = [tuple(p.position) for p in fixed_scene(cfg, model)]
                return model.code.entries, model.pilots.symbols, model.hypotheses.priors, fixed

            self.checker = Checker(self.args.seed, model_data)
        return self.checker

    def check_pass(self, result: dict) -> list:
        """Check every call of a pass; returns the per-call check results."""
        checks = []
        for (verb, cfg), rec in zip(self.calls, result["verbs"]):
            self.attempted += 1
            if rec["error"] is not None:
                res = None
                problems = [f"{verb} raised {rec['error']}"]
            else:
                try:
                    res = self.checker_for().check(verb, cfg, rec["out"])
                except (ValueError, KeyError, IndexError) as exc:  # malformed output
                    res = None
                    problems = [f"{verb} output unreadable: {type(exc).__name__}: {exc}"]
                else:
                    problems = res.problems
                    self.cells_checked += res.cells_checked
                    self.undecidable += res.undecidable
            if problems:
                self.failed += 1
                self.problems.extend(problems[:5])
            checks.append(res)
        return checks

    def selftest(self, result: dict, checks: list) -> list[str]:
        """Corrupt a copy of the first map call's output three ways; each
        corruption must be reported.  Returns the corruptions that were not."""
        idx = next(i for i, (verb, _) in enumerate(self.calls) if verb in MAP_VERBS)
        verb, cfg = self.calls[idx]
        src, res = result["verbs"][idx]["out"], checks[idx]
        if res is None or not res.compared:
            return ["no checked output to corrupt"]
        name, row, col, mask_col, _ = min(res.compared, key=lambda c: c[-1])

        def perturb(rows):
            value = float(rows[row][col])
            rows[row][col] = repr(value * (1.0 + 1e-9) + 1e-9)

        def flip_mask(rows):
            rows[row][mask_col] = "true"
            rows[row][col] = ""

        missed = []
        for label, edit in (("perturbed value", perturb), ("flipped mask bit", flip_mask),
                            ("empty CSV", None)):
            copy = os.path.join(self.work, "selftest-" + label.replace(" ", "-"))
            shutil.copytree(src, copy)
            path = os.path.join(copy, name)
            if edit is None:
                open(path, "w").close()
            else:
                _edit_csv(path, edit)
            if not self.checker_for().check(verb, cfg, copy).problems:
                missed.append(label)
            shutil.rmtree(copy)
        return missed

    # --- modes ------------------------------------------------------------
    def end_to_end(self) -> tuple[dict, dict]:
        self.child("setup")  # warm the bytecode caches; not timed
        setups = [self.child("setup") for _ in range(SETUP_REPS)]
        # a pass starts only if one of average length still fits in S
        passes, spent, missed = [], 0.0, []
        while not passes or spent * (len(passes) + 1) / len(passes) <= self.args.seconds:
            t = time.monotonic()
            result = self.run_pass(f"pass-{len(passes)}")
            spent += time.monotonic() - t
            checks = self.check_pass(result)
            if not passes:
                missed = self.selftest(result, checks)
            shutil.rmtree(os.path.join(self.work, f"pass-{len(passes)}"))
            passes.append(result)
        cells = sum(grid_cells(cfg) for verb, cfg in self.calls if verb in MAP_VERBS)

        def timed(p, verbs, scaled):
            return sum(v["seconds"] * (v["speed"] if scaled else 1.0) for v in p["verbs"]
                       if v["verb"] in verbs)

        # name -> (scaled values, measured values, unit)
        samples = {
            "wall_s": ([timed(p, VERB_METRICS, True) for p in passes],
                       [timed(p, VERB_METRICS, False) for p in passes], "s"),
            "cells_per_s": ([cells / timed(p, MAP_VERBS, True) for p in passes],
                            [cells / timed(p, MAP_VERBS, False) for p in passes], "1/s"),
            "setup_s": ([s["setup_s"] * s["speed"] for s in setups],
                        [s["setup_s"] for s in setups], "s"),
            "peak_rss_mb": ([p["peak_rss_mb"] for p in passes],
                            [p["peak_rss_mb"] for p in passes], "MB"),
        }
        metrics, info = {}, {}
        for name, (scaled, measured, unit) in samples.items():
            metrics[name] = {"value": statistics.median(scaled), "unit": unit}
            info[name] = {"n": len(scaled), "min": min(scaled), "max": max(scaled),
                          "measured_median": statistics.median(measured)}
        speeds = [p["speed"] for p in passes]
        return metrics, {"samples": info, "speed": {"min": min(speeds), "max": max(speeds)},
                         "selftest_missed": missed}

    def per_layer(self) -> tuple[dict, dict]:
        plain = self.run_pass("plain")
        checks = self.check_pass(plain)
        missed = self.selftest(plain, checks)
        shutil.rmtree(os.path.join(self.work, "plain"))
        spans = os.path.join(OUT, f"spans-{self.args.workload}.csv")
        traced = self.run_pass("traced", "--trace", spans)
        checks = self.check_pass(traced)
        masked = sum(c.masked_values for (verb, _), c in zip(self.calls, checks)
                     if verb in BOUND_VERBS and c is not None)
        coverage = self.run_pass("coverage", "--coverage")["coverage"]

        tr, k = traced["trace"], traced["speed"]
        wall = traced["wall_s"] * k
        names, layers, ctr = tr["per_name"], tr["per_layer"], tr["counters"]
        cells = sum(grid_cells(cfg) for verb, cfg in self.calls if verb in MAP_VERBS)
        draws = sum(mc_draws(cfg) for verb, cfg in self.calls if verb == "classify-mc")
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.calls", layers[layer]["calls"], "count")
            put(f"{layer}.self_s", layers[layer]["self_s"] * k, "s")
            put(f"{layer}.share", layers[layer]["self_s"] * k / wall, "ratio")
        put("metasurface.fourier_coefficients.calls_per_cell",
            _per(names["metasurface.fourier_coefficients"]["calls"], cells), "1/cell")
        put("metasurface.harmonic_pattern_batch.calls_per_cell",
            _per(names["metasurface.harmonic_pattern_batch"]["calls"], cells), "1/cell")
        put("metasurface.unique_xi_ratio", _per(ctr["xi_distinct"], ctr["xi_evaluated"]), "ratio")
        put("metasurface.exp_evals", ctr["exp_evals"], "count")
        put("bounds.scale_invariant_cond.calls", names["bounds.scale_invariant_cond"]["calls"], "count")
        put("bounds.scale_invariant_cond.self_s",
            names["bounds.scale_invariant_cond"]["self_s"] * k, "s")
        put("bounds.fim_generic.self_s", names["bounds.fim_generic"]["self_s"] * k, "s")
        put("bounds.fim_generic.bytes", ctr["fim_bytes"], "B")
        put("bounds.masked_cells", masked, "count")
        put("geometry.angles_from_position.calls_per_cell",
            _per(names["geometry.angles_from_position"]["calls"], cells), "1/cell")
        put("detection.despread_regressor_at_angle.calls",
            names["detection.despread_regressor_at_angle"]["calls"], "count")
        put("detection.unique_alpha_ratio", _per(ctr["alpha_distinct"], ctr["alpha_calls"]), "ratio")
        put("detection.pd_marginal.calls", names["detection.pd_marginal"]["calls"], "count")
        put("channel.steering_vector.calls", names["channel.steering_vector"]["calls"], "count")
        put("classification.confusion_matrix.self_s",
            names["classification.confusion_matrix"]["self_s"] * k, "s")
        put("io.rows_written", ctr["rows_written"], "count")
        put("io.bytes_written", ctr["bytes_written"], "B")
        put("io.write_csv.self_s", names["io.write_csv"]["self_s"] * k, "s")
        put("config.build_model.self_s", names["config.build_model"]["self_s"] * k, "s")
        put("trace.wall_s", wall, "s")
        put("trace.remainder_s", wall - sum(v["self_s"] * k for v in layers.values()), "s")
        put("trace.overhead", wall / (plain["wall_s"] * plain["speed"]), "ratio")
        seconds = {v["verb"]: v["seconds"] * v["speed"] for v in plain["verbs"]}
        for verb, metric in VERB_METRICS.items():
            put(metric, seconds.get(verb, 0.0), "s")
        put("trials_per_s", _per(draws, seconds.get("classify-mc", 0.0)), "1/s")
        shutil.rmtree(os.path.join(self.work, "traced"))
        return m, {"selftest_missed": missed, "coverage_mismatches": coverage,
                   "speed": {"plain": plain["speed"], "traced": k},
                   "spans": tr["spans"], "span_table": os.path.relpath(spans, ROOT)}


def _per(num, den):
    return num / den if den else 0.0


def _edit_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _read(path: str):
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return fh.read().strip()


def git_revision():
    """Commit of the checkout, read from .git (loose or packed ref); None
    outside a git checkout or when the ref cannot be resolved."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose is not None:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "stcmsense")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pins": {v: os.environ[v] for v in BLAS_PINS},
        "seed": seed,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stcmsense", "__init__.py")):
        print(f"error: no stcmsense package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    runner = Runner(args)
    shutil.rmtree(runner.work, ignore_errors=True)
    os.makedirs(runner.work)
    try:
        metrics, extra = runner.per_layer() if args.trace else runner.end_to_end()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    sound = not extra["selftest_missed"] and not extra.get("coverage_mismatches")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print("check " + json.dumps({
        "calls": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "cells_checked": runner.cells_checked, "undecidable_masks": runner.undecidable,
        "problems": runner.problems[:20]}))
    print("self-check " + json.dumps(extra, sort_keys=True))
    samples = extra.get("samples", {})
    for name, m in metrics.items():
        tail = ""
        if name in samples:
            tail = (f"  (median of {samples[name]['n']}; measured "
                    f"{samples[name]['measured_median']:.6g} {m['unit']})")
        print(f"{name:52s} {m['value']:.6g} {m['unit']}{tail}")
    print(f"{'failed_frac':52s} {runner.failed / runner.attempted:.6g} ratio")
    print(json.dumps({"correct": runner.failed == 0 and sound, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
