"""Content-hash incremental cache for the lint engine.

A lint run over ``src/repro`` parses ~180 files and runs nine per-module
rules on each; on a warm CI runner almost none of them changed since the
last run.  The cache keys every file on the SHA-256 of its bytes plus
the engine version and the selected per-module rule set, and stores two
things per file:

* the file's per-module-rule violations (post noqa-filtering), and
* its :class:`~repro.analysis.graph.ModuleIndex` — the symbol/call facts
  the project-wide dataflow rules (REP003, REP010–REP013) consume.

Project rules always re-run (they are whole-program by definition and
cheap — they operate on the small index summaries, not on ASTs), so an
edit to one file correctly re-evaluates every cross-module contract
while only the changed file is re-parsed and re-linted.

The cache file (default ``.repro-lint-cache.json``) is a plain JSON
document; a corrupt or version-skewed cache is silently treated as cold
— the cache can never change lint results, only their cost.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.graph import INDEX_VERSION, ModuleIndex

#: Bump on any behavioural change to per-module rules or the engine so
#: stale caches from older versions never mask new findings.
ENGINE_VERSION = "2.1"

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def content_hash(data: bytes) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    return hashlib.sha256(data).hexdigest()


def ruleset_signature(rule_ids: Sequence[str]) -> str:
    """Stable signature of the selected rule set + engine version."""
    payload = ",".join(sorted(rule_ids))
    return f"{ENGINE_VERSION}/{INDEX_VERSION}/" + hashlib.sha256(
        payload.encode("utf-8")
    ).hexdigest()[:16]


class CacheEntry:
    """Cached analysis of one file at one content hash."""

    __slots__ = ("file_hash", "violations", "index")

    def __init__(
        self,
        file_hash: str,
        violations: List[Dict[str, object]],
        index: ModuleIndex,
    ):
        self.file_hash = file_hash
        #: Violations as JSON dicts (``path``/``line``/``rule``/``message``).
        self.violations = violations
        self.index = index

    def to_json(self) -> Dict[str, object]:
        return {
            "hash": self.file_hash,
            "violations": self.violations,
            "index": self.index.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CacheEntry":
        return cls(
            file_hash=str(payload["hash"]),
            violations=list(payload.get("violations") or []),
            index=ModuleIndex.from_json(payload["index"]),
        )


class LintCache:
    """Load/query/update the on-disk lint cache.

    Usage::

        cache = LintCache.load(path, signature)
        entry = cache.get(display, file_hash)   # None on miss
        cache.put(display, entry)
        cache.save()
    """

    def __init__(self, path: Path, signature: str):
        self.path = path
        self.signature = signature
        self.entries: Dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def load(cls, path, signature: str) -> "LintCache":
        """Read the cache file; a missing/corrupt/stale cache is cold."""
        cache = cls(Path(path), signature)
        try:
            payload = json.loads(cache.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if payload.get("signature") != signature:
            return cache
        try:
            for display, entry in (payload.get("files") or {}).items():
                cache.entries[display] = CacheEntry.from_json(entry)
        except (KeyError, TypeError, ValueError) as exc:
            # Half-readable cache: keep what parsed, drop the rest —
            # entries are only ever an accelerator, never load-bearing.
            import sys

            print(
                f"repro lint: warning: discarding malformed cache entries "
                f"in {cache.path}: {exc}",
                file=sys.stderr,
            )
        return cache

    def get(self, display: str, file_hash: str) -> Optional[CacheEntry]:
        """The cached entry for *display*, or None when content changed."""
        entry = self.entries.get(display)
        if entry is not None and entry.file_hash == file_hash:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, display: str, entry: CacheEntry) -> None:
        """Record a freshly analyzed file."""
        self.entries[display] = entry

    def prune(self, live_displays: Sequence[str]) -> None:
        """Drop entries for files no longer part of the lint set."""
        live = set(live_displays)
        for display in [key for key in self.entries if key not in live]:
            del self.entries[display]

    def save(self) -> None:
        """Atomically write the cache next to its final path."""
        payload = {
            "signature": self.signature,
            "files": {
                display: entry.to_json()
                for display, entry in sorted(self.entries.items())
            },
        }
        from repro.ioutil import atomic_write_text

        data = json.dumps(payload, sort_keys=True)
        directory = self.path.parent if str(self.path.parent) else Path(".")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            # durable=False: atomicity (no torn readers) matters, but the
            # cache is rebuildable, so fsync durability is not worth the
            # latency on every lint run.
            atomic_write_text(self.path, data, durable=False)
        except OSError as exc:
            # A read-only checkout must not fail the lint; the cache is
            # an accelerator, never a correctness dependency.
            import sys

            print(
                f"repro lint: warning: could not write cache {self.path}: {exc}",
                file=sys.stderr,
            )


def stats(cache: Optional[LintCache]) -> Tuple[int, int]:
    """``(hits, misses)`` for an optional cache."""
    if cache is None:
        return (0, 0)
    return (cache.hits, cache.misses)
