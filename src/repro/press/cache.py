"""The per-node file cache, with optional pinning for zero-copy.

PRESS keeps a fixed-budget in-memory cache of whole files, replaced LRU.
Two paper-relevant behaviours live here:

* every insertion and eviction generates a **cache-update broadcast** so
  peers can route requests to the caching node (locality-conscious
  dispatch);
* in VIA-PRESS-5 every cached page must be **pinned** (registered with
  the VIA provider) so file data can leave zero-copy.  When pinning
  fails — the injected pinnable-memory exhaustion — the cache *sheds
  files* to stay under the effective pin limit, and the resulting misses
  degrade throughput (Figure 4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from ..obs.events import CACHE_EVICT, CACHE_HIT, CACHE_MISS, CACHE_PIN_FAILURE
from ..obs.metrics import bound_counter
from ..osim.memory import PinnableMemory


class FileCache:
    """LRU whole-file cache with a byte budget and optional pinning.

    The hit/miss/evict counters live in ``engine``'s metrics registry,
    labelled ``node=node_id``, and lookups/evictions publish
    ``press.cache.*`` events on its bus.
    """

    def __init__(
        self,
        engine,
        capacity_bytes: int,
        pinned: bool = False,
        pin_memory: Optional[PinnableMemory] = None,
        node_id: str = "",
    ):
        if pinned and pin_memory is None:
            raise ValueError("a pinned cache needs a PinnableMemory")
        self.capacity_bytes = capacity_bytes
        self.pinned = pinned
        self.pin_memory = pin_memory
        self._bus = engine.bus
        self._node_id = node_id
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self.used_bytes = 0
        self._hits = bound_counter(engine, "press.cache.hits", node=node_id)
        self._misses = bound_counter(engine, "press.cache.misses", node=node_id)
        self._evictions = bound_counter(engine, "press.cache.evictions", node=node_id)
        self._pin_failures = bound_counter(
            engine, "press.cache.pin_failures", node=node_id
        )
        #: callbacks fired with ("add"|"evict", file_id) for broadcasts
        self.on_change: List[Callable[[str, str], None]] = []

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def pin_failures(self) -> int:
        return self._pin_failures.value

    def _publish(self, name: str, **fields) -> None:
        self._bus.publish(name, node=self._node_id, **fields)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._entries

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, file_id: str) -> Optional[int]:
        """Size of the cached file, or None on miss.  Refreshes LRU."""
        size = self._entries.get(file_id)
        if size is None:
            self._misses.inc()
            self._publish(CACHE_MISS, file=file_id)
            return None
        self._entries.move_to_end(file_id)
        self._hits.inc()
        self._publish(CACHE_HIT, file=file_id)
        return size

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def insert(self, file_id: str, size: int) -> bool:
        """Cache ``file_id``; returns False when it could not be cached
        (e.g. pinning failed even after shedding every other file)."""
        if size > self.capacity_bytes:
            return False
        if file_id in self._entries:
            self._entries.move_to_end(file_id)
            return True
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_lru()
        if self.pinned:
            while not self.pin_memory.pin(size):
                self._pin_failures.inc()
                self._publish(CACHE_PIN_FAILURE, bytes=size)
                if not self._entries:
                    return False  # nothing left to shed; serve unpinned
                self._evict_lru()
        self._entries[file_id] = size
        self.used_bytes += size
        self._fire("add", file_id)
        return True

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see repro.sim.snapshot).

        LRU *order* matters (it decides the next eviction), so the entry
        list is ordered, not sorted.
        """
        return {
            "entries": list(self._entries.items()),
            "used_bytes": self.used_bytes,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
            "pin_failures": self._pin_failures.value,
        }

    def _evict_lru(self) -> None:
        file_id, size = self._entries.popitem(last=False)
        self.used_bytes -= size
        self._evictions.inc()
        self._publish(CACHE_EVICT, file=file_id)
        if self.pinned:
            self.pin_memory.unpin(size)
        self._fire("evict", file_id)

    def evict(self, file_id: str) -> bool:
        size = self._entries.pop(file_id, None)
        if size is None:
            return False
        self.used_bytes -= size
        self._evictions.inc()
        self._publish(CACHE_EVICT, file=file_id)
        if self.pinned:
            self.pin_memory.unpin(size)
        self._fire("evict", file_id)
        return True

    def preload(self, file_ids, size: int) -> int:
        """Warm-start: insert files without firing change broadcasts.

        Used by the experiment harness to start runs in the steady state
        the paper measures in.  Stops early (returning how many files
        made it) if a pinned cache runs out of pinnable memory or the
        byte budget fills.
        """
        loaded = 0
        for file_id in file_ids:
            if file_id in self._entries:
                continue
            if self.used_bytes + size > self.capacity_bytes:
                break
            if self.pinned and not self.pin_memory.pin(size):
                self._pin_failures.inc()
                break
            self._entries[file_id] = size
            self.used_bytes += size
            loaded += 1
        return loaded

    def clear(self) -> None:
        """Drop everything (announcing evictions to peers)."""
        while self._entries:
            self._evict_lru()

    def release(self) -> None:
        """Process death: the OS reclaims pinned pages; no announcements."""
        if self.pinned:
            for size in self._entries.values():
                self.pin_memory.unpin(size)
        self._entries.clear()
        self.used_bytes = 0
        self.on_change.clear()

    def _fire(self, action: str, file_id: str) -> None:
        for cb in self.on_change:
            cb(action, file_id)

    def keys(self):
        return self._entries.keys()
