"""Generation-tracking bundle store: the durable side of the refresh loop.

A :class:`BundleStore` is a directory of versioned bundles plus an index::

    store/
      store.json        # {"latest": 3, "versions": {"1": {...}, "2": {...}}}
      v0001/            # ordinary serving bundles (repro.serving.bundle)
      v0002/
      v0003/

Each index entry records the bundle's content fingerprint at publish time, so
:meth:`BundleStore.load` detects on-disk tampering/corruption before a bundle
ever reaches a server, and the parent version, so :meth:`BundleStore.lineage`
can walk a generation's full ancestry.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..serving.bundle import ServingBundle, bundle_fingerprint, export_bundle, load_bundle
from ..telemetry import events, increment

__all__ = ["BundleStore", "BundleIntegrityError"]

PathLike = Union[str, Path]

_INDEX_SCHEMA_VERSION = 1


class BundleIntegrityError(RuntimeError):
    """A stored bundle's content no longer matches its published fingerprint."""


class BundleStore:
    """Versioned bundle directory with lineage tracking and integrity checks."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------- index
    @property
    def index_path(self) -> Path:
        return self.root / "store.json"

    def _read_index(self) -> Dict:
        if not self.index_path.is_file():
            return {"schema_version": _INDEX_SCHEMA_VERSION, "latest": None, "versions": {}}
        return json.loads(self.index_path.read_text())

    def _write_index(self, index: Dict) -> None:
        # Atomic replace: a crash mid-write must not leave a torn index.
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.index_path)

    def versions(self) -> List[int]:
        return sorted(int(v) for v in self._read_index()["versions"])

    @property
    def latest_version(self) -> Optional[int]:
        latest = self._read_index()["latest"]
        return None if latest is None else int(latest)

    def path(self, version: int) -> Path:
        return self.root / f"v{int(version):04d}"

    def entry(self, version: int) -> Dict:
        index = self._read_index()
        entry = index["versions"].get(str(int(version)))
        if entry is None:
            raise KeyError(f"store {self.root} has no version {version}; known: {self.versions()}")
        return dict(entry)

    # ----------------------------------------------------------------- publish
    def publish(
        self,
        model,
        task,
        note: str = "",
        parent_version: Optional[int] = None,
        metrics: Optional[Dict] = None,
    ) -> int:
        """Export ``model`` as the next generation and promote it to latest."""
        index = self._read_index()
        version = (int(index["latest"]) if index["latest"] is not None else 0) + 1
        if parent_version is not None and str(int(parent_version)) not in index["versions"]:
            raise KeyError(
                f"parent version {parent_version} is not in store {self.root}; "
                f"known: {self.versions()}"
            )
        created_at = time.time()
        lineage = {
            "store": str(self.root),
            "created_at": created_at,
            "parent_fingerprint": (
                index["versions"][str(int(parent_version))]["fingerprint"]
                if parent_version is not None
                else None
            ),
        }
        path = export_bundle(
            model,
            task,
            self.path(version),
            note=note,
            version=version,
            parent_version=parent_version,
            lineage=lineage,
            metrics=metrics,
        )
        fingerprint = bundle_fingerprint(path)
        index["versions"][str(version)] = {
            "fingerprint": fingerprint,
            "parent": None if parent_version is None else int(parent_version),
            "note": note,
            "created_at": created_at,
            "metrics": dict(metrics or {}),
        }
        index["latest"] = version
        self._write_index(index)
        increment("live.store.published")
        events.emit(
            "live.publish",
            version=version,
            parent_version=parent_version,
            fingerprint=fingerprint,
            store=str(self.root),
        )
        return version

    # -------------------------------------------------------------------- load
    def load(self, version: Optional[int] = None) -> ServingBundle:
        """Load a generation (default: latest), verifying its fingerprint."""
        if version is None:
            version = self.latest_version
            if version is None:
                raise KeyError(f"store {self.root} is empty; publish a bundle first")
        entry = self.entry(version)
        path = self.path(version)
        actual = bundle_fingerprint(path)
        if actual != entry["fingerprint"]:
            raise BundleIntegrityError(
                f"bundle v{version} at {path} does not match its published "
                f"fingerprint (index {entry['fingerprint']}, on disk {actual}); "
                "the store was modified outside publish()"
            )
        return load_bundle(path)

    def verify(self, version: int) -> bool:
        """True when the stored bundle still matches its published fingerprint."""
        entry = self.entry(version)
        return bundle_fingerprint(self.path(version)) == entry["fingerprint"]

    def lineage(self, version: Optional[int] = None) -> List[Dict]:
        """Ancestry chain, newest first: ``[{version, parent, ...}, ...]``."""
        if version is None:
            version = self.latest_version
            if version is None:
                return []
        chain: List[Dict] = []
        cursor: Optional[int] = int(version)
        while cursor is not None:
            entry = self.entry(cursor)
            chain.append({"version": cursor, **entry})
            parent = entry.get("parent")
            cursor = None if parent is None else int(parent)
            if cursor is not None and any(link["version"] == cursor for link in chain):
                raise ValueError(f"lineage cycle detected at version {cursor} in {self.root}")
        return chain
