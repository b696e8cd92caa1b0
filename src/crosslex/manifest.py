"""Run manifests: enough provenance to re-run a pipeline step exactly."""

from __future__ import annotations

import hashlib
import json
import time

from . import __version__
from .errors import write_text


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command, config, inputs):
    """Write the JSON manifest at ``path``: command, config snapshot (seeds
    included), input checksums, package version, and a timestamp."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_text(path, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
