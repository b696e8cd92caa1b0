"""Run manifests: enough provenance to re-run a pipeline step exactly."""

from __future__ import annotations

import json
import time

from . import __version__
from .errors import sha256_file, write_text


def write_manifest(path, command, config, inputs, *, digests=None):
    """Write the JSON manifest at ``path``: command, config snapshot (seeds
    included), input checksums, package version, and a timestamp. An input
    in ``digests``, a map from path to the sha256 taken when it was read, is
    not hashed again."""
    digests = digests or {}
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): digests[p] if p in digests else sha256_file(p)
                   for p in inputs},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_text(path, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
