"""Decompressed-chunk cache with write-back (paper design challenge 3).

The paper criticizes prior compressed simulation for poor data locality and
low cache hit rates. This cache sits in front of the
:class:`~repro.memory.chunkstore.CompressedChunkStore` and keeps a bounded
number of *decompressed* chunks resident:

* ``load`` hits skip decompression entirely;
* ``store`` marks the cached copy dirty and skips recompression until the
  chunk is evicted (**write-back**) — consecutive stages touching the same
  chunk pay the codec once, not per stage;
* eviction is **Belady/MIN**: evict the resident chunk whose next use is
  farthest in the future. Belady is normally a thought experiment, but the
  :class:`~repro.compile.CompiledPlan` fixes the entire access sequence
  before execution, so here it is achievable: attach an
  :class:`~repro.memory.hierarchy.AccessSchedule` and the cache replays
  the plan's future exactly. Off-schedule accesses (no schedule attached,
  ad-hoc loads in serve jobs, result queries) evict first, most recent
  first — i.e. exact MRU, which pins a stable subset under the cyclic
  full sweeps chunked simulation generates.

The cache reports hits/misses/write-backs so the locality experiment (A7)
can show hit rate and codec-time savings versus capacity. Other policies
(LRU, MRU) exist only as offline replays of a recorded trace
(:func:`repro.analysis.memtrace.simulate_cache`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..telemetry import NULL_TELEMETRY, get_logger
from .accounting import MemoryTracker
from .chunkstore import CompressedChunkStore

__all__ = ["ChunkCache", "CacheStats"]

CATEGORY = "chunk_cache"

log = get_logger(__name__)


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    write_hits: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class ChunkCache:
    """Bounded write-back cache over a compressed chunk store.

    Exposes the same ``load``/``store``/``permute``/``zero_chunk`` surface
    as the store (plus :meth:`flush`); any other attribute delegates to the
    wrapped store, so the cache is a drop-in replacement wherever a store
    is expected.

    Every access is matched against the attached :attr:`schedule`
    (``observe``), which yields that access's barrier-bounded next-use
    position; the entry keeps it until its next access, and the victim is
    the resident entry used farthest in the future.
    """

    def __init__(
        self,
        store: CompressedChunkStore,
        capacity_chunks: int,
        tracker: Optional[MemoryTracker] = None,
        telemetry=None,
    ):
        if capacity_chunks < 1:
            raise ValueError("capacity_chunks must be >= 1")
        self.inner = store
        self.capacity = int(capacity_chunks)
        #: the plan's :class:`~repro.memory.hierarchy.AccessSchedule`;
        #: ``None`` makes every access off-schedule (MRU eviction)
        self.schedule = None
        self.dtype = np.dtype(getattr(store, "dtype", np.complex128))
        self.tracker = tracker if tracker is not None else store.tracker
        self.telemetry = telemetry if telemetry is not None else \
            getattr(store, "telemetry", NULL_TELEMETRY)
        self.cache_stats = CacheStats()
        # chunk id -> [array, dirty, next use]; insertion order = recency
        # (last = MRU). Next use is None for an off-schedule access.
        self._entries: "OrderedDict[int, list]" = OrderedDict()

    # -- delegation ---------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # -- cache mechanics ------------------------------------------------------

    def _next_use(self, chunk: int, op: str) -> Optional[float]:
        """Match an access against the schedule (``None`` = off-schedule)."""
        if self.schedule is None:
            return None
        return self.schedule.observe(chunk, op)

    def _insert(self, chunk: int, data: np.ndarray, dirty: bool,
                next_use: Optional[float]) -> None:
        entry = self._entries.get(chunk)
        if entry is not None:
            entry[0][:] = data
            entry[1] = entry[1] or dirty
            entry[2] = next_use
            self._entries.move_to_end(chunk)
            return
        while len(self._entries) >= self.capacity:
            self._evict_one()
        arr = np.array(data, dtype=self.dtype, copy=True)
        self._entries[chunk] = [arr, dirty, next_use]
        self.tracker.alloc(CATEGORY, arr.nbytes)

    def _victim(self) -> int:
        # First maximum in recency order; finite next-use positions are
        # unique (they are schedule indices), so the only ties are at
        # infinity — past the next barrier, where the flush erases any
        # difference between choices. Off-schedule entries outrank even
        # infinity and break ties MRU-wise (latest wins).
        victim = None
        victim_nu = -1.0
        unknown = None
        for chunk, (_arr, _dirty, nu) in self._entries.items():
            if nu is None:
                unknown = chunk
            elif victim is None or nu > victim_nu:
                victim, victim_nu = chunk, nu
        return unknown if unknown is not None else victim

    def _evict_one(self) -> None:
        if not self._entries:
            return
        chunk = self._victim()
        arr, dirty, _nu = self._entries.pop(chunk)
        if dirty:
            self.inner.store(chunk, arr)
            self.cache_stats.writebacks += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.writeback").inc()
        self.tracker.free(CATEGORY, arr.nbytes)
        self.cache_stats.evictions += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("cache.eviction").inc()
            self.telemetry.emit("cache.evict", chunk=chunk, dirty=dirty)

    def flush(self) -> None:
        """Write back every dirty chunk and empty the cache."""
        dirty_n = 0
        for chunk, (arr, dirty, _nu) in self._entries.items():
            if dirty:
                self.inner.store(chunk, arr)
                self.cache_stats.writebacks += 1
                dirty_n += 1
            self.tracker.free(CATEGORY, arr.nbytes)
        if self.telemetry.enabled:
            if dirty_n:
                self.telemetry.metrics.counter("cache.writeback").inc(dirty_n)
            if self._entries:
                self.telemetry.emit("cache.flush",
                                    resident=len(self._entries),
                                    written_back=dirty_n)
        log.debug("cache flush: %d resident, %d written back",
                  len(self._entries), dirty_n)
        self._entries.clear()

    @property
    def resident_chunks(self) -> int:
        return len(self._entries)

    # -- store surface ------------------------------------------------------------

    def load(self, chunk: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        next_use = self._next_use(chunk, "r")
        entry = self._entries.get(chunk)
        if entry is not None:
            self.cache_stats.hits += 1
            data = entry[0]
            entry[2] = next_use
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.hit").inc()
                # Bytes *served* from the cache: codec traffic avoided.
                self.telemetry.traffic.record("cache", "hit", data.nbytes)
            self._entries.move_to_end(chunk)
            if out is not None:
                out[: data.shape[0]] = data
                return out
            return data.copy()
        self.cache_stats.misses += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("cache.miss").inc()
            # Bytes fetched *past* the cache (the inner load's decompress).
            self.telemetry.traffic.record(
                "cache", "miss", self.inner.layout.chunk_nbytes)
        data = self.inner.load(chunk)
        self._insert(chunk, data, dirty=False, next_use=next_use)
        if out is not None:
            out[: data.shape[0]] = data
            return out
        return data

    def store(self, chunk: int, data: np.ndarray) -> None:
        if data.shape[0] != self.inner.layout.chunk_size:
            raise ValueError("buffer size mismatch")
        next_use = self._next_use(chunk, "w")
        if chunk in self._entries:
            self.cache_stats.write_hits += 1
        self._insert(chunk, data, dirty=True, next_use=next_use)

    def load_batch(self, chunks, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Through the cache entry-by-entry so dirty copies stay coherent.
        cs = self.inner.layout.chunk_size
        if out is None:
            out = np.empty(len(chunks) * cs, dtype=self.dtype)
        for i, c in enumerate(chunks):
            self.load(c, out=out[i * cs:(i + 1) * cs])
        return out

    def store_batch(self, chunks, data: np.ndarray) -> None:
        cs = self.inner.layout.chunk_size
        if data.shape[0] != len(chunks) * cs:
            raise ValueError("buffer size mismatch")
        for i, c in enumerate(chunks):
            self.store(c, data[i * cs:(i + 1) * cs])

    def zero_chunk(self, chunk: int) -> None:
        entry = self._entries.pop(chunk, None)
        if entry is not None:
            self.tracker.free(CATEGORY, entry[0].nbytes)
        self.inner.zero_chunk(chunk)

    # -- blob-level surface (parallel codec path) ----------------------------

    def get_blob(self, chunk: int):
        """Coherent raw-blob read: write back a dirty cached copy first."""
        entry = self._entries.get(chunk)
        if entry is not None and entry[1]:
            self.inner.store(chunk, entry[0])
            entry[1] = False
            self.cache_stats.writebacks += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("cache.writeback").inc()
        return self.inner.get_blob(chunk)

    def put_blob(self, chunk: int, blob: bytes, **kwargs) -> None:
        """Install an external blob, dropping any (now stale) cached copy."""
        entry = self._entries.pop(chunk, None)
        if entry is not None:
            self.tracker.free(CATEGORY, entry[0].nbytes)
        self.inner.put_blob(chunk, blob, **kwargs)

    def permute(self, perm) -> None:
        # Blob permutation happens on compressed data; flush first so the
        # relabeling sees every update, then drop the (now stale) cache.
        self.flush()
        self.inner.permute(perm)

    def to_statevector(self) -> np.ndarray:
        self.flush()
        return self.inner.to_statevector()

    def compressed_nbytes(self) -> int:
        self.flush()
        return self.inner.compressed_nbytes()

    def compression_ratio(self) -> float:
        self.flush()
        return self.inner.compression_ratio()

    def __repr__(self) -> str:
        s = self.cache_stats
        return (
            f"<ChunkCache {self.resident_chunks}/{self.capacity} "
            f"hit_rate={s.hit_rate:.2f} writebacks={s.writebacks}>"
        )
