"""Frozen-constant store.

Norm-equivalence constants are nowhere universal; they are measured once on
a designated reference run and then used as regression bounds with 10%
slack.  The store is a versioned JSON text file mapping

    (family, item, p, q, grid-id) -> constant

and refuses lookups whose grid-id does not match the stored one.  The
default location is the packaged data file; the environment variable
AMALGAM_FROZEN_DIR overrides the directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FrozenStore", "default_store_path", "GridMismatchError"]

STORE_VERSION = 1
STORE_FILENAME = "frozen_constants.json"


class GridMismatchError(KeyError):
    """A constant exists for this key but was frozen on a different grid."""


def default_store_path() -> Path:
    env = os.environ.get("AMALGAM_FROZEN_DIR")
    if env:
        return Path(env) / STORE_FILENAME
    return Path(__file__).parent / "data" / STORE_FILENAME


def _key(family: str, item: str, p: float, q: float) -> str:
    return f"{family}|{item}|p={p:g}|q={q:g}"


@dataclass
class FrozenStore:
    entries: dict = field(default_factory=dict)

    @staticmethod
    def load(path=None) -> "FrozenStore":
        path = Path(path) if path is not None else default_store_path()
        if not path.exists():
            raise FileNotFoundError(
                f"frozen-constant store not found at {path}; run the 'freeze' command first"
            )
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
                raise ValueError("not a JSON object with an 'entries' object")
            if doc.get("version") != STORE_VERSION:
                raise ValueError(f"unsupported store version {doc.get('version')!r}")
        except ValueError as exc:  # not JSON (or not text), or not a store
            raise ValueError(f"frozen-constant store {path}: {exc}") from exc
        return FrozenStore(doc["entries"])

    def save(self, path=None) -> Path:
        path = Path(path) if path is not None else default_store_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"version": STORE_VERSION, "entries": dict(sorted(self.entries.items()))}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return path

    def put(self, family: str, item: str, p: float, q: float, grid_id: str, value: float):
        key = _key(family, item, p, q)
        if value is None or not math.isfinite(value):
            raise ValueError(f"refusing to freeze non-finite constant {value!r} for {key}")
        self.entries[key] = {"grid_id": grid_id, "value": float(value)}

    def get(self, family: str, item: str, p: float, q: float, grid_id: str) -> float:
        key = _key(family, item, p, q)
        if key not in self.entries:
            raise KeyError(f"no frozen constant for {key}")
        entry = self.entries[key]
        if entry["grid_id"] != grid_id:
            raise GridMismatchError(
                f"constant {key} was frozen on grid {entry['grid_id']!r}, "
                f"refusing comparison on {grid_id!r}"
            )
        return float(entry["value"])

    def has(self, family: str, item: str, p: float, q: float) -> bool:
        return _key(family, item, p, q) in self.entries
