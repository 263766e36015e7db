"""Report bundle plumbing: provenance manifests.

A bundle is a directory of named tables (CSV/JSON) plus a manifest that
records the command, its parameters, and SHA-256 hashes of every input and
output. Identical inputs and seeds produce byte-identical bundles, so the
manifest carries no timestamps. The manifest is `metrics.json_text`,
written with `metrics.atomic_write_text`: a temp name in the target
directory, renamed into place.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Mapping

from ..metrics import atomic_write_text, json_text


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str | Path, command: str,
                   params: Mapping[str, object],
                   inputs: Mapping[str, str | Path],
                   outputs: list[str]) -> Path:
    """Write manifest.json; inputs/outputs are hashed for provenance."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "parameters": dict(sorted(params.items())),
        "inputs": {name: {"path": str(path), "sha256": sha256_of(path)}
                   for name, path in sorted(inputs.items())},
        "outputs": {name: {"sha256": sha256_of(out_dir / name)}
                    for name in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    atomic_write_text(path, json_text(manifest))
    return path
