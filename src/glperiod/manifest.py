"""Run manifests: config echo, versions, timestamps, hashed artifact index."""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


def atomic_write(path, data: str | bytes) -> None:
    """Write text (UTF-8) or bytes to a temporary file beside path, then rename
    it over path: every artifact a run writes is whole or absent."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def strict_json(obj) -> str:
    """obj as strict JSON (indented, keys sorted), the format of every JSON file a
    run writes: a non-finite float is null, beside `<key>_reason` in a dict."""
    def finite(node):
        if isinstance(node, (list, tuple)):
            return [finite(value) for value in node]
        if not isinstance(node, dict):
            return None if isinstance(node, float) and not math.isfinite(node) else node
        out = {key: finite(value) for key, value in node.items()}
        reasons = {f"{key}_reason": f"not finite: {value!r}" for key, value in node.items()
                   if isinstance(value, float) and not math.isfinite(value)}
        return out | {key: why for key, why in reasons.items() if out.get(key) is None}

    return json.dumps(finite(obj), indent=2, sort_keys=True, allow_nan=False)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class RunManifest:
    config: dict
    versions: dict = field(default_factory=dict)
    started: str = field(default_factory=_now)
    finished: str | None = None
    artifacts: list[dict] = field(default_factory=list)
    headline: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.versions:
            from . import __version__
            from .spectral import WORKERS  # spectral imports atomic_write from here
            self.versions = {"glperiod": __version__, "numpy": np.__version__,
                             "python": platform.python_version(),
                             "fft_backend": "numpy.fft", "workers": WORKERS}

    def add_artifact(self, path, base_dir) -> None:
        path = Path(path)
        self.artifacts.append({
            "path": str(path.relative_to(base_dir)),
            "sha256": sha256_of(path),
            "bytes": path.stat().st_size,
        })

    def finish(self) -> None:
        self.finished = _now()

    def write(self, path) -> None:
        atomic_write(path, strict_json(asdict(self)))


def load_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


def verify_manifest(path) -> list[str]:
    """Re-hash every indexed artifact; returns a list of problems (empty when
    the manifest is intact). An artifact that is missing or not a regular
    file is a problem; an OSError while hashing one is raised."""
    path = Path(path)
    manifest = load_manifest(path)
    base = path.parent
    problems = []
    for entry in manifest.get("artifacts", []):
        target = base / entry["path"]
        if not target.is_file():
            what = "artifact is not a file" if target.exists() else "missing artifact"
            problems.append(f"{what}: {entry['path']}")
            continue
        if sha256_of(target) != entry["sha256"]:
            problems.append(f"hash mismatch: {entry['path']}")
    return problems
