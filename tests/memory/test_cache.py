"""Unit tests for the decompressed-chunk cache."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.memory import (
    AccessSchedule,
    ChunkCache,
    ChunkLayout,
    CompressedChunkStore,
    MemoryTracker,
)


def rig(n=6, c=3, capacity=4):
    tracker = MemoryTracker()
    lay = ChunkLayout(n, c)
    store = CompressedChunkStore(lay, get_compressor("zlib"), tracker)
    store.init_zero_state()
    return ChunkCache(store, capacity, tracker), store, tracker


class TestBasics:
    def test_validation(self):
        _, store, tracker = rig()
        with pytest.raises(ValueError):
            ChunkCache(store, 0)

    def test_load_hit_skips_inner(self):
        cache, store, _ = rig()
        cache.load(0)
        before = store.stats.loads
        cache.load(0)
        assert store.stats.loads == before
        assert cache.cache_stats.hits == 1

    def test_load_returns_copy(self):
        cache, _, _ = rig()
        a = cache.load(0)
        a[:] = 99.0
        b = cache.load(0)
        assert not np.any(b == 99.0)

    def test_load_into_out_buffer(self):
        cache, _, _ = rig()
        buf = np.empty(8, dtype=np.complex128)
        out = cache.load(1, out=buf)
        assert out is buf

    def test_delegation(self):
        cache, store, _ = rig()
        assert cache.layout is store.layout
        assert cache.compressor is store.compressor


class TestWriteBack:
    def test_store_is_deferred(self):
        cache, store, _ = rig()
        data = np.full(8, 0.25, dtype=np.complex128)
        before = store.stats.stores
        cache.store(0, data)
        assert store.stats.stores == before  # not yet compressed
        cache.flush()
        assert store.stats.stores == before + 1
        assert np.array_equal(store.load(0), data)

    def test_repeated_stores_one_writeback(self):
        cache, store, _ = rig()
        before = store.stats.stores
        for i in range(5):
            cache.store(0, np.full(8, float(i), dtype=np.complex128))
        cache.flush()
        assert store.stats.stores == before + 1

    def test_eviction_writes_back_dirty(self):
        cache, store, _ = rig(capacity=2)
        cache.store(0, np.full(8, 1.0, dtype=np.complex128))
        cache.store(1, np.full(8, 2.0, dtype=np.complex128))
        cache.store(2, np.full(8, 3.0, dtype=np.complex128))  # evicts one
        assert cache.cache_stats.evictions == 1
        assert cache.cache_stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache, store, _ = rig(capacity=2)
        cache.load(0)
        cache.load(1)
        cache.load(2)
        assert cache.cache_stats.evictions == 1
        assert cache.cache_stats.writebacks == 0

    def test_store_size_checked(self):
        cache, _, _ = rig()
        with pytest.raises(ValueError):
            cache.store(0, np.zeros(4, dtype=np.complex128))


class TestPolicies:
    def test_mru_keeps_prefix_under_sweep(self):
        cache, _, _ = rig(n=7, c=3, capacity=4)  # 16 chunks, no schedule
        for _ in range(2):
            for k in range(16):
                cache.load(k)
        # second sweep should hit on the retained low chunks
        assert cache.cache_stats.hits >= 3

    def test_schedule_evicts_farthest_next_use(self):
        # Pass (0, 1), then chunk 2, then chunk 1 again. Unscheduled (MRU)
        # eviction drops chunk 1 for chunk 2 and misses on it later; the
        # schedule knows chunk 0 is never used again and drops it instead.
        passes = [("pass", 0, 0, (0, 1)), ("pass", 1, 0, (2,)),
                  ("pass", 2, 0, (1,))]
        misses = {}
        for scheduled in (False, True):
            cache, _, _ = rig(capacity=2)
            if scheduled:
                cache.schedule = AccessSchedule(passes)
            for _kind, _s, _g, members in passes:
                data = [cache.load(c) for c in members]
                for c, d in zip(members, data):
                    cache.store(c, d)
            misses[scheduled] = cache.cache_stats.misses
        assert misses == {False: 4, True: 3}


class TestConsistency:
    def test_permute_flushes_first(self):
        cache, store, _ = rig()
        cache.store(0, np.full(8, 0.5, dtype=np.complex128))
        nc = store.layout.num_chunks
        perm = list(range(nc))
        perm[0], perm[1] = perm[1], perm[0]
        cache.permute(perm)
        assert np.array_equal(cache.load(1), np.full(8, 0.5, dtype=np.complex128))
        assert np.all(cache.load(0) == 0)

    def test_zero_chunk_invalidates(self):
        cache, _, _ = rig()
        cache.store(3, np.full(8, 0.5, dtype=np.complex128))
        cache.zero_chunk(3)
        assert np.all(cache.load(3) == 0)

    def test_to_statevector_sees_dirty_data(self):
        cache, _, _ = rig()
        cache.store(0, np.full(8, 1 / np.sqrt(64), dtype=np.complex128))
        sv = cache.to_statevector()
        assert sv[0] == pytest.approx(1 / np.sqrt(64))

    def test_tracker_accounting(self):
        cache, _, tracker = rig(capacity=2)
        cache.load(0)
        cache.load(1)
        assert tracker.current("chunk_cache") == 2 * 8 * 16
        cache.flush()
        assert tracker.current("chunk_cache") == 0

    def test_repr(self):
        cache, _, _ = rig()
        assert "ChunkCache" in repr(cache)


class TestEndToEnd:
    @pytest.mark.parametrize("policy", ["lru", "mru"])
    def test_cached_run_identical(self, policy, dense):
        # The live cache gives the uncached result, and on the run's own
        # recorded trace it misses no more than the what-if ``policy``
        # replay (LRU/MRU survive only as offline replays).
        from repro.analysis.memtrace import simulate_cache
        from repro.circuits import random_circuit
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec
        from repro.memory import ChunkAccessRecorder
        from repro.telemetry import Telemetry

        circ = random_circuit(8, 50, seed=44)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        ref = MemQSim(cfg).run(circ).statevector()
        tel = Telemetry()
        tel.access = ChunkAccessRecorder()
        res = MemQSim(cfg.with_updates(cache_chunks=6), telemetry=tel) \
            .run(circ)
        assert np.allclose(res.statevector(), ref, atol=1e-12)
        trace = tel.access.trace()
        assert len(trace) > 0
        _hits, replay_misses = simulate_cache(trace, 6, policy)
        assert res.store.cache_stats.misses <= replay_misses

    def test_cached_lossy_run_respects_bounds(self):
        from repro.circuits import qft
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec
        from repro.statevector import DenseSimulator

        circ = qft(9)
        cfg = MemQSimConfig(
            chunk_qubits=4,
            compressor="szlike", compressor_options={"error_bound": 1e-8},
            device=DeviceSpec(memory_bytes=1 << 13),
            cache_chunks=8,
        )
        res = MemQSim(cfg).run(circ)
        ref = DenseSimulator().run(circ).data
        assert res.fidelity_vs(ref) > 1 - 1e-6

    def test_cache_reduces_codec_traffic(self):
        from repro.circuits import qft
        from repro.core import MemQSim, MemQSimConfig
        from repro.device import DeviceSpec

        circ = qft(9)
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            device=DeviceSpec(memory_bytes=1 << 13))
        plain = MemQSim(cfg).run(circ)
        cached = MemQSim(cfg.with_updates(cache_chunks=32)).run(circ)
        assert cached.store.stats.stores < plain.store.stats.stores
