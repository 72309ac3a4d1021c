"""Materialize a trace's file population onto disk for the back-ends.

The simulator's :class:`~repro.workload.filesets.FileSet` is just a size
vector; the live back-ends need actual files to read.  Only the files a
trace touches are written (a Zipf population's tail is mostly unvisited),
and by default they are *sparse* — ``truncate`` to the exact size without
writing data blocks — so even multi-hundred-MB footprints cost near-zero
disk.  Reads of sparse files return zeros at full speed, which is fine:
the experiment measures caching and distribution behaviour, not disk
media bandwidth.

The back-end workers import this module for :func:`file_name` and
:func:`load_manifest`, so numpy is imported inside
:func:`materialize_fileset`, the one function that needs it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Union

if TYPE_CHECKING:
    from ..workload.traces import Trace

__all__ = ["file_name", "materialize_fileset", "load_manifest"]

MANIFEST_NAME = "manifest.json"


def file_name(file_id: int) -> str:
    """On-disk name for a file id (fixed width keeps listings sorted)."""
    return f"f{file_id:08d}.dat"


def materialize_fileset(
    trace: Trace,
    root: Union[str, Path],
    sparse: bool = True,
) -> Path:
    """Write every file the trace touches under ``root``; return ``root``.

    Also writes ``manifest.json`` mapping file id -> size so back-end
    processes can serve size metadata without re-reading the trace.
    Idempotent: existing files of the right size are left alone.
    """
    import numpy as np

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    sizes = trace.fileset.sizes
    touched = np.unique(trace.file_ids)
    manifest: Dict[str, int] = {}
    for fid in touched.tolist():
        size = int(sizes[fid])
        manifest[str(fid)] = size
        path = root / file_name(fid)
        if path.exists() and path.stat().st_size == size:
            continue
        with open(path, "wb") as fh:
            if sparse:
                fh.truncate(size)
            else:
                fh.write(b"\x00" * size)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))
    return root


def load_manifest(root: Union[str, Path]) -> Dict[int, int]:
    """Read ``manifest.json`` back as a ``{file_id: size_bytes}`` map."""
    raw = json.loads((Path(root) / MANIFEST_NAME).read_text())
    return {int(fid): int(size) for fid, size in raw.items()}
