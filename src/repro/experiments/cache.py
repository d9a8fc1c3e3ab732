"""On-disk result cache for scenario sweeps.

A sweep re-run with the same spec should not re-simulate anything: every
scenario's summary is cached on disk under a key derived from

* the **canonical scenario parameters** (the normalised point dict the
  sweep engine builds scenarios from), and
* a **code fingerprint** — a SHA-256 over every ``repro`` source file —
  so any change to the simulator automatically invalidates all entries
  (stale results can never be served after a code edit).

Entries are one JSON file each, written atomically (tmp file +
``os.replace``), so concurrent workers and interrupted runs can never
leave a truncated entry that later parses as a result. A corrupt or
unreadable entry is treated as a miss.

The default location is ``.repro-cache/sweeps`` under the current
directory; override per call or with ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.perf.profiler import active as _profiler
from repro.util.atomic import write_json_atomic

__all__ = [
    "CACHE_FORMAT",
    "code_fingerprint",
    "canonical_json",
    "point_key",
    "ResultCache",
    "default_cache_dir",
]

#: Bump to invalidate every existing cache entry on a schema change.
CACHE_FORMAT = 1

_fingerprint_memo: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over all ``repro`` package sources (memoised per process).

    Hashes each module's package-relative path and contents, in sorted
    order, so the fingerprint is independent of install location but
    changes whenever any simulator code changes.
    """
    global _fingerprint_memo
    if _fingerprint_memo is None:
        import repro

        pkg_root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _fingerprint_memo = h.hexdigest()
    return _fingerprint_memo


def canonical_json(data: Any) -> str:
    """Deterministic JSON form (sorted keys, no whitespace variance)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def point_key(params: Dict[str, Any], *, fingerprint: Optional[str] = None) -> str:
    """Cache key for one scenario point: content hash of params + code."""
    payload = canonical_json(
        {
            "format": CACHE_FORMAT,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
            "params": params,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``.repro-cache/sweeps`` in cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".repro-cache" / "sweeps"


class ResultCache:
    """Content-addressed store of scenario summaries.

    Parameters
    ----------
    root:
        Directory holding the entries (created lazily on first write).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        # two-level fan-out keeps directories small on big sweeps
        return self.root / key[:2] / f"{key}.json"

    def _entry(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        with _profiler().phase("cache.get"):
            try:
                with open(path) as fh:
                    entry = json.load(fh)
            except (OSError, json.JSONDecodeError):
                return None
        if entry.get("format") != CACHE_FORMAT or entry.get("key") != key:
            return None
        return entry

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached summary dict for ``key``, or None on a miss."""
        hit = self.lookup(key)
        return hit[0] if hit is not None else None

    def lookup(
        self, key: str, extras: Sequence[str] = ()
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """``(summary, {name: extra})`` for ``key``, reading the entry once.

        A hit needs a summary and every extra named in ``extras`` (e.g.
        ``"audit"``, ``"ledger"``); an entry lacking any of them is a
        miss, so the caller re-executes the point and stores them.
        """
        entry = self._entry(key)
        if entry is None:
            return None
        summary = entry.get("summary")
        stored = entry.get("extras")
        if not isinstance(stored, dict):
            stored = {}
        if not isinstance(summary, dict) or any(
            stored.get(name) is None for name in extras
        ):
            return None
        return summary, {name: stored[name] for name in extras}

    def get_provenance(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's provenance stamp, or None (pre-stamp entries)."""
        entry = self._entry(key)
        if entry is None:
            return None
        provenance = entry.get("provenance")
        return provenance if isinstance(provenance, dict) else None

    def put(
        self,
        key: str,
        params: Dict[str, Any],
        summary: Dict[str, Any],
        *,
        extras: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store ``summary`` for ``key`` (atomic; params kept for humans).

        ``extras`` carries optional JSON-able side payloads (audit,
        ledger, lineage) without touching the summary schema the golden
        tests pin. They are merged over the extras already stored for
        ``key``, so re-executing a point for one missing payload keeps
        the others.

        Every entry is stamped with a ``provenance`` section (schema
        version, git SHA, the point's RNG seed, short code fingerprint)
        so registry ingest and post-hoc audits can attribute a cached
        point to the exact source tree and seed that produced it.
        Provenance is informational only — it never participates in the
        cache key or in hit/miss decisions.
        """
        from repro.util.provenance import git_sha

        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "params": params,
            "summary": summary,
            "provenance": {
                "schema": CACHE_FORMAT,
                "git_sha": git_sha(),
                "seed": params.get("seed"),
                "code_fingerprint": code_fingerprint()[:16],
            },
        }
        old = self._entry(key)
        stored = old.get("extras") if old is not None else None
        if isinstance(stored, dict):
            extras = {**stored, **(extras or {})}
        if extras:
            entry["extras"] = extras
        with _profiler().phase("cache.put"):
            write_json_atomic(self._path(key), entry)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
