"""Host fingerprint and measured bandwidth roofs.

Every result carries the fingerprint, so a number always says which host
made it. The roofs are probed in the benchmark process itself:

* ``memcpy`` — ``np.copyto`` between two complex128 arrays, the same
  operation the simulated host-to-device copy performs;
* ``stream`` — one fused in-place numpy ufunc (``x *= phase``) that reads
  and writes every element once, the access pattern of a gate kernel.

Both are probed at two sizes: ``group`` (the run's group-buffer size,
which sits in the per-core caches) and ``dram`` (a working set of at
least four times the last-level cache, so it streams from memory).
Rates count the bytes of the array copied or updated once, in GB/s
(1e9 bytes), the same convention the per-layer rates use.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

__all__ = ["fingerprint", "cache_sizes", "dram_probe_bytes", "probe_roofs"]

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * mult
    return int(text)


def cache_sizes() -> dict:
    """Unified/data cache sizes by level in bytes (empty if unreadable)."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mem_available() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def dram_probe_bytes() -> int:
    """Working-set size of the DRAM probe: 4x the last-level cache.

    Capped at a quarter of the memory currently available so the probe
    cannot push a shared host into swapping or the OOM killer; the
    fingerprint reports whether the cap applied.
    """
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 32 << 20
    want = 4 * llc
    avail = _mem_available()
    if avail:
        want = min(want, avail // 4)
    return max(64 << 20, want - want % (1 << 20))


def fingerprint(group_bytes: int) -> dict:
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 0
    dram = dram_probe_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": caches.get("L2", 0),
        "l3_bytes": caches.get("L3", 0),
        "llc_bytes": llc,
        "roof_group_bytes": group_bytes,
        "roof_dram_bytes": dram,
        "roof_dram_ge_4x_llc": bool(llc) and dram >= 4 * llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _rate(fn, nbytes: int, min_seconds: float, reps: int) -> float:
    """Median GB/s over ``reps`` batches, each at least ``min_seconds``."""
    fn()  # fault pages in, warm caches
    rates = []
    for _ in range(reps):
        n = 0
        t0 = time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_seconds:
                break
        rates.append(n * nbytes / dt / 1e9)
    return statistics.median(rates)


def probe_roofs(group_bytes: int) -> dict:
    """Measure memcpy and streaming-kernel GB/s at group and DRAM sizes."""
    out = {}
    phase = np.complex128(np.exp(0.25j))
    n = max(1, group_bytes // 16)
    src = np.ones(n, dtype=np.complex128)
    dst = np.empty_like(src)
    out["roof.memcpy_GBps.group"] = _rate(
        lambda: np.copyto(dst, src), src.nbytes, 0.05, 5)
    out["roof.stream_GBps.group"] = _rate(
        lambda: np.multiply(src, phase, out=src), src.nbytes, 0.05, 5)
    del src, dst
    # DRAM: memcpy between the two halves of one buffer, and the stream
    # kernel over the whole of it. One allocation keeps the footprint at
    # the stated working-set size.
    big = np.ones(dram_probe_bytes() // 16, dtype=np.complex128)
    half = big.shape[0] // 2
    lo, hi = big[:half], big[half:2 * half]
    out["roof.memcpy_GBps.dram"] = _rate(
        lambda: np.copyto(hi, lo), lo.nbytes, 0.0, 3)
    out["roof.stream_GBps.dram"] = _rate(
        lambda: np.multiply(big, phase, out=big), big.nbytes, 0.0, 3)
    del big
    return out
