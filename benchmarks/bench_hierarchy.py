"""Experiment MH1 — plan-driven Belady eviction vs LRU on a streamed run.

Because the compiled plan fixes the chunk access schedule before the run
starts, the live cache evicts the chunk whose next use is farthest in the
future — Belady's MIN, normally an offline fantasy. This experiment runs
a streamed VQE workload once, records its access trace, and checks two
things:

* **exactness** — the live cache takes *exactly* the number of read
  misses the offline replay (``repro memtrace``) computes as the
  clairvoyant bound from the recorded trace. Not approximately: the
  eviction decisions are driven by the same schedule the replay sees, so
  any drift is a bug in the cursor resync logic.
* **benefit** — Belady takes fewer misses than LRU at the same capacity;
  the gated metric is the relative miss reduction. LRU is not a live
  policy: its misses come from replaying the same trace
  (:func:`~repro.analysis.memtrace.simulate_cache`), so it has no wall
  time of its own.

The run is serial by design: the parallel engine works on compressed
blobs directly and never consults the decompressed chunk cache. Miss
counts are fully deterministic (plan-driven schedule, seeded workload),
so one run suffices; wall time is reported but not the point.

Emits the canonical ``results/BENCH_MH1.json`` record. ``REPRO_FULL=1``
raises the qubit count.
"""

from __future__ import annotations

import argparse
import time

import pytest

from common import FULL, emit_result, print_banner, seconds
from repro.analysis import Table, format_seconds
from repro.analysis.memtrace import belady_misses, simulate_cache
from repro.circuits import vqe_ansatz
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import ChunkAccessRecorder
from repro.telemetry import Telemetry

N = 13 if FULL else 11
LAYERS = 2
CHUNK = 4
CAPACITY = 32
#: device small enough to force streaming (many stages, many passes) —
#: with a roomy device the whole run is one pass and every policy ties.
DEVICE_MB = 0.002

ARMS = ("lru", "belady")


def run_once(n: int = N, capacity: int = CAPACITY) -> dict:
    circ = vqe_ansatz(n, layers=LAYERS)
    tel = Telemetry()
    rec = ChunkAccessRecorder()
    tel.access = rec
    cfg = MemQSimConfig(
        chunk_qubits=CHUNK, compressor="zlib", cache_chunks=capacity,
        execution="serial",
        device=DeviceSpec(memory_bytes=int(DEVICE_MB * (1 << 20))),
    )
    t0 = time.perf_counter()
    res = MemQSim(cfg, telemetry=tel).run(circ)
    wall = time.perf_counter() - t0
    # Snapshot the counters before norm(): computing the norm streams
    # every chunk back through the cache, which is off-schedule traffic.
    stats = res.store.cache_stats
    misses, hits = stats.misses, stats.hits
    return {
        "wall_seconds": wall,
        "misses": misses,
        "hits": hits,
        "norm": float(res.norm()),
        "trace": rec.trace(),
    }


def generate_report(n: int = N, capacity: int = CAPACITY) -> dict:
    run = run_once(n, capacity)
    trace = run["trace"]
    bound = belady_misses(trace, capacity)
    # The headline exactness contract: live == offline Belady bound.
    assert run["misses"] == bound, \
        f"live cache took {run['misses']} misses, bound is {bound}"
    lru_hits, lru_misses = simulate_cache(trace, capacity, "lru")
    misses = {"lru": lru_misses, "belady": run["misses"]}
    hits = {"lru": lru_hits, "belady": run["hits"]}
    reduction = ((misses["lru"] - misses["belady"]) / misses["lru"]
                 if misses["lru"] else 0.0)
    return {
        "experiment": "MH1 plan-driven Belady eviction vs LRU",
        "workload": "vqe", "num_qubits": n, "layers": LAYERS,
        "chunk_qubits": CHUNK, "capacity": capacity,
        "device_mb": DEVICE_MB,
        "accesses": len(trace),
        "wall_seconds": run["wall_seconds"],
        "norm": run["norm"],
        "misses": misses,
        "hits": hits,
        "belady_bound": bound,
        "miss_reduction": reduction,
    }


def render_table(report: dict) -> Table:
    t = Table(
        ["policy", "misses", "source", "hits", "wall"],
        title=(f"MH1: eviction policy at C={report['capacity']}, "
               f"{report['workload']} n={report['num_qubits']} "
               f"chunk={report['chunk_qubits']} "
               f"({report['accesses']} accesses)"),
    )
    for arm in ARMS:
        live = arm == "belady"
        t.add(arm, str(report["misses"][arm]),
              "live" if live else "trace replay", str(report["hits"][arm]),
              format_seconds(report["wall_seconds"]) if live else "-")
    return t


# -- pytest-benchmark targets ---------------------------------------------------

def test_hierarchy_wall_clock(benchmark):
    res = benchmark.pedantic(run_once, args=(9, 8), rounds=1, iterations=1)
    assert res["norm"] == pytest.approx(1.0, abs=1e-3)


def test_belady_live_equals_bound_small():
    rep = generate_report(n=9, capacity=8)  # asserts exactness internally
    assert rep["misses"]["belady"] <= rep["misses"]["lru"]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--qubits", type=int, default=N)
    ap.add_argument("--capacity", type=int, default=CAPACITY)
    args = ap.parse_args()

    print_banner(__doc__.splitlines()[0])
    report = generate_report(args.qubits, args.capacity)
    print(render_table(report).render())
    print(f"\nlive cache == offline Belady bound: "
          f"{report['misses']['belady']} == {report['belady_bound']}")
    print(f"miss reduction vs LRU at C={report['capacity']}: "
          f"{report['miss_reduction'] * 100:.1f}%")
    emit_result("MH1", title=__doc__.splitlines()[0],
                params={"num_qubits": report["num_qubits"],
                        "layers": LAYERS, "chunk_qubits": CHUNK,
                        "workload": report["workload"],
                        "capacity": report["capacity"],
                        "device_mb": DEVICE_MB},
                metrics={
                    "wall_seconds_belady": seconds(report["wall_seconds"]),
                    # deterministic counters — tight tolerances are safe
                    "lru_misses": {
                        "values": [report["misses"]["lru"]],
                        "direction": "lower", "tolerance": 0.01},
                    "belady_misses": {
                        "values": [report["misses"]["belady"]],
                        "direction": "lower", "tolerance": 0.01},
                    # the headline: how much the plan buys over recency
                    "miss_reduction": {
                        "values": [report["miss_reduction"]],
                        "direction": "higher", "tolerance": 0.02},
                },
                tables=[render_table(report)],
                extra={"misses": report["misses"],
                       "hits": report["hits"],
                       "norm": report["norm"],
                       "belady_bound": report["belady_bound"],
                       "accesses": report["accesses"]})
