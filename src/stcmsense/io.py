"""Deterministic CSV emission and the result manifest.

Floats are written with ``repr`` (shortest round-trip form), so identical
inputs produce byte-identical files on every platform.  Masked cells carry
an empty value field plus an explicit boolean mask column; sentinel numbers
are never used.  ``write_csv`` formats chunks of ``CHUNK_ROWS`` rows column
by column (one conditional comprehension per column, then the columns
zipped back into lines) instead of one call per cell; the chunk bounds the
strings held at once, and the bytes are those of formatting each cell alone.
The manifest is written only after every data file exists.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import json
import os

# Rows per formatting chunk (see the module docstring); no effect on the bytes.
CHUNK_ROWS = 4096


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row: None as an empty field, bools as
    ``true``/``false``, floats by ``repr``, anything else by ``str``."""
    it = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(it, CHUNK_ROWS)):
            cols = [["" if v is None else ("true" if v else "false") if v is True or v is False
                     else repr(v) if isinstance(v, float) else str(v) for v in col]
                    for col in zip(*chunk)]
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


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
