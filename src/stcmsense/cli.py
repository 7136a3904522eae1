"""Command-line entry point.

Subcommands regenerate the data behind each experiment family:

    stcmsense crb-map     --out results/ [--config cfg.json] [--grid-res 2]
    stcmsense peb-map     --out results/
    stcmsense detect-map  --out results/
    stcmsense classify-mc --out results/ [--seed 7]
    stcmsense ris-compare --out results/
    stcmsense validate

Outputs are CSV files plus a JSON manifest with checksums; identical
config and seed give byte-identical CSVs.  Exit code 0 only on full success.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import DEFAULT_CONFIG, RULES, load_config
from .errors import SensingError
from .experiments import (
    run_classification_mc,
    run_crb_map,
    run_detection_map,
    run_peb_map,
    run_ris_compare,
)
from .validate import run_validate

_EXPERIMENTS = {
    "crb-map": run_crb_map,
    "peb-map": run_peb_map,
    "detect-map": run_detection_map,
    "classify-mc": run_classification_mc,
    "ris-compare": run_ris_compare,
}


# (flag, config key, metavar, help); each flag parses as its key's default type
_FLAGS = (
    ("--seed", "seed", "N", "override the experiment seed"),
    ("--grid-res", "grid_res_m", "METERS", "grid resolution override"),
    ("--threads", "threads", "N", "worker processes over cell blocks"),
    ("--harmonics", "harmonics", "MF", "highest analyzed harmonic order"),
    ("--targets", "n_targets", "R", "number of targets"),
)


def _add_common(parser: argparse.ArgumentParser, needs_out: bool) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config overriding the defaults")
    for flag, key, metavar, text in _FLAGS:
        parser.add_argument(flag, dest=key, type=type(DEFAULT_CONFIG[key]), metavar=metavar,
                            help=f"{text}: {RULES[key][1]}")
    if needs_out:
        parser.add_argument("--out", metavar="DIR", default=".", help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stcmsense", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        _add_common(sub.add_parser(name), needs_out=True)
    _add_common(sub.add_parser("validate"), needs_out=False)

    args = parser.parse_args(argv)
    overrides = {key: v for _, key, _, _ in _FLAGS if (v := getattr(args, key)) is not None}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "validate":
            return 1 if run_validate(cfg) else 0
        os.makedirs(args.out, exist_ok=True)
        files = _EXPERIMENTS[args.command](cfg, args.out)
        for f in files:
            print(f)
        return 0
    except (SensingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
