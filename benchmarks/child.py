"""One benchmark pass in a fresh, single-threaded interpreter.

    python3 child.py setup --workload W --seed N
    python3 child.py pass  --workload W --seed N --out DIR
                           [--trace SPANS.csv | --coverage]

``setup`` times a cold ``import stcmsense`` plus ``load_config``,
``build_model`` and ``fixed_scene`` for every call of the workload.
``pass`` runs the workload's experiment calls through the public
``stcmsense.experiments.run_*`` functions, each into its own empty
directory under DIR, and times them.  With ``--trace`` the layers are
wrapped in spans first (see tracer.py) and the span table is written to
SPANS.csv.  ``--coverage`` runs a traced pass on coarse grids under
cProfile and compares the two call counts per wrapped function.  The
result is one JSON object on the last line of stdout.

Both modes also time a fixed calibration task (``calibrate``) in the same
process: after the set-up, and before and after every experiment call of a
pass.  Each experiment call reports ``speed``, the calibration's reference
time over the mean of the two calibrations around it, and the pass reports
the same over all its calibrations; run.py multiplies the times it
reports by them.

The package must come from the ``src`` next to this directory.  The runner
(run.py) puts it on PYTHONPATH and pins every BLAS pool to one thread
before this process starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import RUNNERS, overrides

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# About the median time of one calibrate() call on the host the benchmark
# was tuned on (2-vCPU x86_64 VM, Python 3.11, numpy 2.4, one BLAS thread),
# where single calls ranged from 0.09 to 0.19 s.  Times scaled by
# speed = CALIB_REF_S / measured are seconds at that host's typical speed.
CALIB_REF_S = 0.13
CALIB_ITERS = 8000


def calibrate() -> float:
    """Seconds of a fixed task shaped like the package's hot loops: a Python
    loop over small numpy arrays, complex exponentials and small matrix
    products.  It runs no package code, so a change to the package cannot
    move it; what moves it is how fast the host runs at that moment, which
    on a shared VM drifts by tens of percent over minutes.  It stays in
    numpy's core (no numpy.linalg), so it adds nothing to the peak memory
    of a pass."""
    import numpy as np

    a = np.linspace(0.1, 1.0, 64)
    m = np.eye(8) * 2.0 + 0.1
    t = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_ITERS):
        acc += abs(np.exp(1j * a * (i % 7)).sum())
        acc += float(((m + (i % 3)) @ a[:8])[0])
        for k in range(40):
            acc += k * 0.5
    return time.perf_counter() - t


def _import_package():
    import stcmsense
    from stcmsense import config, experiments

    where = os.path.realpath(os.path.dirname(stcmsense.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"stcmsense imported from {where}, not from {SRC}")
    return config, experiments


def setup(args) -> dict:
    t0 = time.perf_counter()
    config, _ = _import_package()
    for _, ov in overrides(args.workload, args.seed):
        cfg = config.load_config(overrides=ov)
        model = config.build_model(cfg)
        config.fixed_scene(cfg, model)
    seconds = time.perf_counter() - t0
    return {"setup_s": seconds, "speed": CALIB_REF_S / calibrate()}


def run_pass(args) -> dict:
    config, experiments = _import_package()
    calls = []
    for i, (verb, ov) in enumerate(overrides(args.workload, args.seed, args.coverage)):
        out = os.path.join(args.out, f"{i}-{verb}")
        os.makedirs(out)
        calls.append((verb, config.load_config(overrides=ov), out))

    tracer = profiler = None
    if args.trace or args.coverage:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if args.coverage:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    verbs, calib = [], [calibrate()]
    for verb, cfg, out in calls:
        run = getattr(experiments, RUNNERS[verb])
        error = None
        t = time.perf_counter()
        try:
            run(cfg, out)
        except Exception as exc:  # recorded as a failed call; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        calib.append(calibrate())
        verbs.append({"verb": verb, "seconds": seconds, "out": out, "error": error,
                      "speed": CALIB_REF_S * 2 / (calib[-2] + calib[-1])})

    if profiler is not None:
        profiler.disable()
    result = {"wall_s": sum(v["seconds"] for v in verbs),
              "speed": CALIB_REF_S * len(calib) / sum(calib), "verbs": verbs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        result["trace"]["counters"] = {
            "xi_evaluated": tracer.xi_evaluated,
            "xi_distinct": len(tracer.xi_distinct),
            "exp_evals": tracer.exp_evals,
            "fim_bytes": tracer.fim_bytes,
            "alpha_calls": tracer.alpha_calls,
            "alpha_distinct": len(tracer.alpha_distinct),
            "rows_written": tracer.rows_written,
            "bytes_written": tracer.bytes_written,
        }
    if args.trace:
        tracer.write_spans(args.trace)
    if profiler is not None:
        result["coverage"] = _coverage(tracer, profiler)
    return result


def _coverage(tracer, profiler) -> list[str]:
    """Wrapped functions whose span count differs from cProfile's count."""
    import pstats

    stats = pstats.Stats(profiler).stats
    counted = {(k[0], k[1], k[2]): v[1] for k, v in stats.items()}
    spans = tracer.aggregate()["per_name"]
    mismatches = []
    for qual, fn in tracer.originals.items():
        code = fn.__code__
        profiled = counted.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if profiled != spans[qual]["calls"]:
            mismatches.append(f"{qual}: {spans[qual]['calls']} spans, {profiled} profiled calls")
    return mismatches


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", metavar="SPANS_CSV")
    parser.add_argument("--coverage", action="store_true")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else run_pass(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
