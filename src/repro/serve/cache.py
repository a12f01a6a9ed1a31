"""The bounded-LRU result cache behind ``/v1/evaluate`` and ``/v1/compare``.

Keys are request fingerprints (sha256 over the canonical request
payload, including the trace's ``schema_hash`` — see DESIGN.md §13);
values are encoded response bytes (the payload's JSON without its
closing ``}``), so a hit costs a lookup and a splice of the small
per-request cache section: no estimation and no report encoding.  The
cache is deliberately simple and single-threaded: the service mutates
it only from the event loop, so no locking is needed.

Semantics:

* **LRU bound** — at most ``max_entries`` live entries; inserting past
  the bound evicts the least-recently-*used* entry (reads refresh
  recency).
* **TTL** — entries older than ``ttl`` seconds are expired lazily on
  lookup.  ``ttl=None`` disables expiry.
* **bypass** — a request with ``"cache": "bypass"`` skips the *read*
  but still stores its fresh result (the refresh semantics a "recompute
  this for me" knob should have).  Handled by the caller simply not
  calling :meth:`ResultCache.get`.

The clock is injectable (monotonic by default) so TTL tests never
sleep.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ServeError


@dataclass(frozen=True)
class CacheStats:
    """Counters describing one cache's lifetime behaviour."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    entries: int

    def to_dict(self) -> Dict[str, int]:
        """The stats as a plain dict (for ``/v1/health`` payloads)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "entries": self.entries,
        }


class ResultCache:
    """Bounded LRU with lazy TTL expiry (see module docstring)."""

    def __init__(
        self,
        max_entries: int = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_entries < 1:
            raise ServeError(
                f"cache max_entries must be at least 1, got {max_entries}"
            )
        if ttl is not None and ttl <= 0:
            raise ServeError(f"cache ttl must be positive, got {ttl}")
        self._max_entries = int(max_entries)
        self._ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[str, Tuple[float, Any]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        """The LRU bound."""
        return self._max_entries

    def get(self, key: str) -> Optional[Any]:
        """The cached value for *key*, or ``None`` (miss or expired)."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        stored_at, value = entry
        if self._ttl is not None and self._clock() - stored_at > self._ttl:
            del self._entries[key]
            self._expirations += 1
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key*, evicting the LRU entry if full."""
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self._max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = (self._clock(), value)

    def invalidate(self, key: str) -> bool:
        """Drop *key* if present; returns whether anything was dropped."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats`."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            expirations=self._expirations,
            entries=len(self._entries),
        )
