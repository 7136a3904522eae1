"""Deterministic CSV emission and the result manifest.

Floats are written with ``repr`` (shortest round-trip form), so identical
inputs produce byte-identical files on every platform.  Masked cells carry
an empty value field plus an explicit boolean mask column; sentinel numbers
are never used.  ``_fields`` formats one whole column by one rule, chosen
once per column; a map formats each distinct lattice coordinate once.
``write_csv`` only joins the ready fields, ``CHUNK_ROWS`` rows at a time;
the chunk bounds the text held at once and does not change the bytes.  The
manifest is written only after every data file exists.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import os

# Rows per joined chunk (see the module docstring); no effect on the bytes.
CHUNK_ROWS = 4096


def _fields(values, masked=None) -> list[str]:
    """CSV fields of one column, by the type of its first value that is not
    None: bools as ``true``/``false``, floats by ``repr``, anything else by
    ``str``; None, and every ``masked`` cell, as an empty field."""
    kind = next((type(v) for v in values if v is not None), None)
    fmt = ("false", "true").__getitem__ if kind is bool else repr if kind is float else str
    masked = [v is None for v in values] if masked is None else masked
    return ["" if m else fmt(v) for v, m in zip(values, masked)]


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row of ready CSV fields (strings, see
    ``_fields``), joined by commas."""
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
