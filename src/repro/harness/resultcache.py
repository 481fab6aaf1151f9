"""On-disk JSON cache for deterministic simulation results.

Every harness run is a pure function of its job tuple (workload, mode,
threads, scale, seed, quantum, config) and of the active cost model, so
a finished run can be archived and replayed instead of re-simulated.
:class:`ResultCache` stores one JSON file per run under a cache
directory, keyed by a SHA-256 of the canonical job description plus a
cost-model/config fingerprint (see :func:`repro.harness.parallel.fingerprint`).

Location: ``$AIKIDO_CACHE_DIR`` when set, else
``$XDG_CACHE_HOME/aikido-repro``, else ``~/.cache/aikido-repro``.

Invalidation is purely key-based: editing a cost constant, the package
version, or any job parameter changes the key, so stale entries are
never *read* — they are only reclaimed by :meth:`ResultCache.clear`.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    override = os.environ.get("AIKIDO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "aikido-repro"


class ResultCache:
    """Persist run results as ``<key>.json`` files under one directory.

    ``get``/``put`` take an opaque hex ``key`` (the caller hashes the job)
    and a JSON-serializable payload. Counters (``hits``, ``misses``,
    ``stores``) track this instance's traffic so callers can assert cache
    behavior (e.g. a warm rerun performing zero simulations).

    **Multi-writer safe.** Concurrent campaigns on one host share this
    directory, and two of them racing on the same key is routine (the
    same job in two overlapping grids). Every ``put`` writes to
    a private ``mkstemp`` file and publishes with ``os.replace``, which
    is atomic on POSIX: a concurrent ``get`` observes either the old
    complete entry or the new complete one, never a torn interleaving —
    and because keys are content addresses, concurrent writers are by
    construction publishing identical bytes, so last-write-wins is
    harmless. ``durable=True`` additionally fsyncs before publishing,
    so a published entry cannot be lost to a host power cut after the
    rename.
    """

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 durable: bool = False):
        self.directory = (Path(directory) if directory is not None
                          else default_cache_dir())
        self.durable = durable
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Failed stores (full disk, permissions, ...): the cache goes
        #: quiet instead of killing the suite that feeds it.
        self.put_errors = 0
        self._put_warned = False

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """Return the cached payload for ``key``, or None on a miss.

        A corrupt entry (interrupted write, manual edit) counts as a miss
        and is deleted so the slot can be rewritten.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            if path.exists():
                try:
                    path.unlink()
                except OSError:
                    pass
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Store ``payload`` under ``key`` atomically (tmpfile + rename).

        A cache is an accelerator, not a dependency: any ``OSError``
        (read-only filesystem, disk full, permission change mid-suite) is
        swallowed — warned about once per instance, counted in
        ``put_errors`` — and the run simply stays uncached.
        """
        tmp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
                if self.durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
        except OSError as exc:
            self.put_errors += 1
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if not self._put_warned:
                self._put_warned = True
                warnings.warn(
                    f"result cache write failed ({exc}); continuing "
                    f"uncached (further failures will be silent)",
                    RuntimeWarning, stacklevel=2)
            return
        except BaseException:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every cached entry; return how many were removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultCache {self.directory} hits={self.hits} "
                f"misses={self.misses} stores={self.stores}>")
