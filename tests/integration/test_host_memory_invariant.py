"""Streaming never holds more host memory than the dense state it replaces.

A memory-store streamed run keeps the whole state as compressed blobs,
so the ``chunk_store`` peak may exceed the dense vector by at most the
blob framing (one header per chunk) — that is what the identity codec
costs, and every real codec must do no worse. Host staging buffers and
the decompressed-chunk cache are the only other host allocations, and
``peak_host_bytes`` adds exactly those on top.
"""

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression import get_compressor
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.memory import MemoryTracker

N = 16
DEVICE = DeviceSpec(memory_bytes=512 << 10)  # 8 chunks of 2^13 amplitudes

#: framing bytes per blob: what the identity codec adds to one chunk
BLOB_HEADER = len(get_compressor("null").compress(
    np.zeros(1, dtype=np.complex128))) - 16


@pytest.mark.parametrize("cache_chunks", [0, 4])
@pytest.mark.parametrize("compressor", ["zlib", "szlike", "null"])
@pytest.mark.parametrize("workload", ["qft", "vqe", "random", "qaoa"])
def test_streamed_run_stays_within_dense(workload, compressor, cache_chunks):
    cfg = MemQSimConfig(compressor=compressor, device=DEVICE,
                        cache_chunks=cache_chunks, workers=1)
    res = MemQSim(cfg).run(get_workload(workload, N))
    tracker = res.tracker
    num_chunks = res.store.layout.num_chunks
    assert num_chunks > 1  # the run really streamed
    bound = MemoryTracker.dense_bytes(N) + num_chunks * BLOB_HEADER
    store_peak = tracker.peak("chunk_store")
    assert store_peak <= bound
    if compressor == "null":
        assert store_peak == bound  # the allowance is exact, not slack
    assert res.peak_host_bytes <= (bound + tracker.peak("host_buffers")
                                   + tracker.peak("chunk_cache"))
    if cache_chunks:
        assert tracker.peak("chunk_cache") \
            == cache_chunks * res.store.layout.chunk_nbytes
