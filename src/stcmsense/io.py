"""Deterministic CSV emission and the result manifest.

Floats are written with ``repr`` (shortest round-trip form), so identical
inputs produce byte-identical files on every platform.  Masked cells carry
an empty value field plus an explicit boolean mask column; sentinel numbers
are never used.  ``format_column`` formats one whole column by one rule,
chosen once per column; an array column (a map's coordinates, values or
mask flags) is formatted once per distinct bit pattern, dB taken first, and
gathered per cell.  ``write_csv`` joins the ready fields ``CHUNK_ROWS`` rows
at a time, with no effect on the bytes; the rows come as one list (the
benchmark tracer counts ``len(rows)``), so a file's fields are held at once.
The manifest is written only after every data file exists.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import math
import os

import numpy as np

# Rows per joined chunk (see the module docstring); no effect on the bytes.
CHUNK_ROWS = 4096


def format_column(values, db: bool = False) -> list[str]:
    """CSV fields of one column, by the type of its first value that is not
    None: bools as ``true``/``false``, floats by ``repr``, anything else by
    ``str``; None as an empty field.  An ndarray is formatted once per
    distinct bit pattern, NaN as None, and gathered per cell; ``db`` first
    takes each such value to ``10 * math.log10`` of it (``np.log10`` differs
    in the last ulp on some doubles)."""
    if isinstance(values, np.ndarray):
        u, inv = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
        distinct = [None if v != v else 10.0 * math.log10(v) if db else v
                    for v in u.view(values.dtype).tolist()]
        return np.array(format_column(distinct), dtype=object)[inv].tolist()
    kind = next((type(v) for v in values if v is not None), None)
    fmt = ("false", "true").__getitem__ if kind is bool else repr if kind is float else str
    return ["" if v is None else fmt(v) for v in values]


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of ready CSV fields (strings, see
    ``format_column``), joined by commas."""
    it = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(it, CHUNK_ROWS)):
            fh.write("\n".join(map(",".join, chunk)) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, experiment: str, cfg_hash: str, version: str, outputs) -> str:
    """JSON sidecar with checksums of every produced file."""
    manifest = {
        "experiment": experiment,
        "config_sha256": cfg_hash,
        "code_version": version,
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {
            os.path.basename(p): sha256_file(p) for p in outputs
        },
    }
    path = os.path.join(out_dir, f"{experiment}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
