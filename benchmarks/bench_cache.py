"""Experiment A7 — data locality: the decompressed-chunk cache.

The paper's motivation (point 3) criticizes compressed simulation for low
cache hit rates / poor data locality. MEMQSim's chunk streaming generates a
*cyclic full-sweep* access pattern — the adversarial case for LRU (it
evicts exactly the chunk needed next) and a good case for MRU (a stable
chunk subset stays pinned). The live cache needs neither heuristic: the
compiled plan fixes every access, so it evicts by the plan (Belady). This
benchmark sweeps cache capacity on a QFT run and reports the live cache's
hit rate, write-backs and codec time next to the hit rates LRU and MRU
would reach, replayed on the same recorded access trace — quantifying how
much locality a bounded uncompressed working set can recover.
"""

from __future__ import annotations

import pytest

import time

from common import emit_result, print_banner, seconds, tight_config
from repro.analysis import Table, format_bytes, format_seconds
from repro.analysis.memtrace import simulate_cache
from repro.circuits import get_workload
from repro.core import MemQSim
from repro.memory import ChunkAccessRecorder
from repro.telemetry import Telemetry

N = 12
CHUNK = 6  # 64 chunks
WORKLOAD = "qft"
REPLAYED = ("lru", "mru")


def run_one(cache_chunks: int, n: int = N):
    """One live run; returns the result and its chunk access trace."""
    tel = Telemetry()
    rec = ChunkAccessRecorder()
    tel.access = rec
    cfg = tight_config(chunk_qubits=CHUNK).with_updates(
        cache_chunks=cache_chunks)
    return MemQSim(cfg, telemetry=tel).run(get_workload(WORKLOAD, n)), \
        rec.trace()


def replayed_misses(trace, capacity: int) -> dict:
    """Read misses LRU and MRU would take on the same trace."""
    return {p: simulate_cache(trace, capacity, p)[1] for p in REPLAYED}


def generate_table(n: int = N) -> Table:
    t = Table(
        ["capacity (chunks)", "hit rate", "LRU replay", "MRU replay",
         "writebacks", "codec time", "serial", "cache bytes"],
        title=f"A7: chunk-cache sweep ({WORKLOAD}, n={n}, {1 << (n - CHUNK)} chunks)",
    )
    base, _ = run_one(0, n)
    bd = base.stage_breakdown
    t.add(0, "-", "-", "-", "-",
          format_seconds(bd.get("decompress", 0) + bd.get("compress", 0)),
          format_seconds(base.serial_seconds), "0 B")
    total_chunks = 1 << (n - CHUNK)
    for frac in (8, 4, 2, 1):
        cap = total_chunks // frac
        res, trace = run_one(cap, n)
        st = res.store.cache_stats
        replay = replayed_misses(trace, cap)
        bd = res.stage_breakdown
        t.add(
            cap, f"{st.hit_rate:.2f}",
            *(f"{1 - replay[p] / st.accesses:.2f}" for p in REPLAYED),
            st.writebacks,
            format_seconds(bd.get("decompress", 0) + bd.get("compress", 0)),
            format_seconds(res.serial_seconds),
            format_bytes(res.tracker.peak("chunk_cache")),
        )
    return t


# -- pytest-benchmark targets ---------------------------------------------------

@pytest.mark.parametrize("cap", [0, 8, 32])
def test_cache_configurations(benchmark, cap):
    res, _ = benchmark.pedantic(run_one, args=(cap, 10),
                                rounds=2, iterations=1)
    assert res.norm() == pytest.approx(1.0, abs=1e-3)


def test_live_cache_beats_lru_and_mru_replays(benchmark):
    res, trace = benchmark.pedantic(run_one, args=(8, 10),
                                    rounds=1, iterations=1)
    live = res.store.cache_stats.misses
    replay = replayed_misses(trace, 8)
    assert live <= replay["lru"] and live <= replay["mru"], (live, replay)


def test_full_cache_eliminates_rereads(benchmark):
    res, _ = benchmark.pedantic(run_one, args=(16, 10),
                                rounds=1, iterations=1)
    st = res.store.cache_stats
    # With every chunk resident, misses = cold misses only.
    assert st.misses <= 16


if __name__ == "__main__":
    print_banner(__doc__.splitlines()[0])
    t0 = time.perf_counter()
    table = generate_table()
    wall = time.perf_counter() - t0
    print(table.render())
    print("The live cache evicts by the plan (Belady); LRU thrashes under")
    print("cyclic sweeps and MRU only retains a stable subset. Write-back")
    print("lets consecutive stages touch a chunk with one codec round-trip")
    print("instead of one per stage.")
    emit_result("A7", title=__doc__.splitlines()[0],
                params={"num_qubits": N, "chunk_qubits": CHUNK,
                        "workload": WORKLOAD},
                metrics={"wall_seconds": seconds(wall)},
                tables=[table])
