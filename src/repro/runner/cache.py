"""On-disk result cache for sweep points.

Results are stored one pickle per point under a cache root (default
``.repro-cache/``), keyed by :meth:`ExperimentSpec.content_hash` — a stable
content address over the full spec plus the ``repro`` package version.
Because a point run is a pure function of its spec, a cache hit is
bit-identical to a fresh execution; a version bump or any spec change
misses by construction.

Writes are atomic (tmp file + ``os.replace``) so a crashed or interrupted
sweep never leaves a half-written entry behind.  Each entry starts with a
fixed header holding the sha256 of the entry's name (its spec's content
hash) followed by the pickle bytes after it, so an entry copied or renamed
onto another spec's path fails its checksum.  An entry whose checksum
fails, whose bytes do not unpickle, or which unpickles to anything but a
:class:`PointResult` is deleted and reported as a miss.  Headerless entries
(written before the checksum) still load, under the same type check and
only when their result's spec hashes to the entry's name.

Every stored entry gets a sibling ``<hash>.manifest.json`` provenance
record (see :mod:`repro.obs.manifest`): spec hash, seed, faults, git SHA,
package version, wall/sim time, and the run's metrics summary — so any
cached number can be audited without unpickling anything.  Manifests are
best-effort: a failure writing one never fails the sweep.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.apps.spec import ExperimentSpec, PointResult

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: An entry's first bytes: this tag, then :func:`_digest` of the entry.
_HEADER = b"repro-sha256\n"
_DIGEST_BYTES = 32


def _digest(name: str, body: bytes) -> bytes:
    """sha256 of an entry's name, then its pickle: binds the two together."""
    digest = hashlib.sha256(name.encode())
    digest.update(body)
    return digest.digest()


class ResultCache:
    """A content-addressed store of :class:`PointResult` pickles."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, spec: "ExperimentSpec") -> Path:
        """The on-disk location for ``spec``'s result."""
        return self.root / f"{spec.content_hash()}.pkl"

    def get(self, spec: "ExperimentSpec") -> "PointResult | None":
        """The cached result for ``spec``, or None on a miss.

        Hits come back flagged ``from_cache=True``.  A corrupt or
        unreadable entry (flipped bits, interrupted write, format drift, or
        an entry filed under another spec's name) is deleted and reported
        as a miss rather than poisoning the sweep.
        """
        from repro.apps.spec import PointResult

        path = self.path(spec)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        body = data
        headed = data.startswith(_HEADER)
        if headed:
            digest = data[len(_HEADER):len(_HEADER) + _DIGEST_BYTES]
            body = data[len(_HEADER) + _DIGEST_BYTES:]
            if _digest(path.stem, body) != digest:
                body = b""
        try:
            result = pickle.loads(body)
        except Exception:
            # Unpickling arbitrary bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, AttributeError, ...).
            result = None
        if not isinstance(result, PointResult) or (
            # A headerless entry carries no name; its spec is the only witness.
            not headed and result.spec.content_hash() != path.stem
        ):
            path.unlink(missing_ok=True)
            return None
        return replace(result, from_cache=True)

    def put(self, spec: "ExperimentSpec", result: "PointResult") -> Path:
        """Atomically store ``result`` under ``spec``'s content hash."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(spec)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            buffer = io.BytesIO()
            pickle.dump(
                replace(result, from_cache=False), buffer, protocol=pickle.HIGHEST_PROTOCOL
            )
            body = buffer.getvalue()
            tmp.write_bytes(_HEADER + _digest(path.stem, body) + body)
            os.replace(tmp, path)
        except BaseException:
            # A failed serialization (or a kill mid-write) must not leave a
            # partial entry: the final path only ever appears via os.replace,
            # and the tmp file is removed here so crashed sweeps don't litter.
            tmp.unlink(missing_ok=True)
            raise
        try:
            from repro.obs.manifest import write_manifest

            write_manifest(result, self.root, path.stem)
        except Exception:
            # Manifests are provenance sugar; the pickle is the entry.
            pass
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed.

        Also sweeps up stale ``*.tmp.*`` files left by writers that were
        killed between opening the tmp file and the atomic rename (those
        do not count toward the return value — they were never entries).
        """
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.pkl"):
                entry.unlink(missing_ok=True)
                removed += 1
            for stale in self.root.glob("*.tmp.*"):
                stale.unlink(missing_ok=True)
            for manifest in self.root.glob("*.manifest.json"):
                manifest.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))


__all__ = ["DEFAULT_CACHE_DIR", "ResultCache"]
