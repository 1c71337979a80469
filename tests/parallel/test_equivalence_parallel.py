"""Parallel-vs-serial equivalence: the subsystem's determinism contract.

With a lossless codec the final statevector and every per-chunk blob must
be bit-identical between ``workers=1`` and ``workers>1``; with a lossy
codec the blobs must still match blob-for-blob, because the codec is a
pure function of chunk bytes and parameters. Covers permutation stages,
CPU offload, multi-executor round-robin, the chunk cache, the disk store,
and a forced worker crash mid-run.
"""

import os

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compression.lossless import ZlibCompressor, blob_layout
from repro.core import MemQSim, MemQSimConfig
from repro.parallel import run_equivalence
from repro.telemetry import Telemetry

WORKERS = 2


def _opts(codec):
    return {"error_bound": 1e-6} if codec in ("szlike", "adaptive") else {}


class TestCodecEquivalence:
    @pytest.mark.parametrize("codec", ["zlib", "szlike", "adaptive"])
    @pytest.mark.parametrize("workload", ["qft", "grover"])
    def test_lossless_and_lossy_codecs(self, codec, workload):
        rep = run_equivalence(
            get_workload(workload, 8), workers=WORKERS,
            chunk_qubits=4, compressor=codec, compressor_options=_opts(codec),
        )
        assert rep.ok, rep.summary()
        assert rep.state_max_abs_diff == 0.0

    def test_zlib_byte_plane_layout(self):
        # 2^11-amplitude chunks of a dense state take the LSP1 layout,
        # whose choice must not depend on which process encodes a chunk.
        rep = run_equivalence(
            get_workload("vqe", 13), workers=WORKERS,
            chunk_qubits=11, compressor="zlib",
        )
        assert rep.ok, rep.summary()
        assert rep.state_max_abs_diff == 0.0
        final = MemQSim(MemQSimConfig(chunk_qubits=11, compressor="zlib")) \
            .run(get_workload("vqe", 13)).store
        layouts = {blob_layout(final.get_blob(k))
                   for k in range(final.layout.num_chunks)}
        assert "planes" in layouts, layouts

    def test_shared_memory_payload_path(self):
        rep = run_equivalence(
            get_workload("qft", 8), workers=WORKERS,
            chunk_qubits=4, compressor="zlib", shm_threshold_bytes=1,
        )
        assert rep.ok, rep.summary()


class TestSchedulerFeatureEquivalence:
    def test_permutation_stages(self):
        # qaoa at small chunks exercises global X/SWAP relabeling stages.
        circ = get_workload("qaoa", 8)
        rep = run_equivalence(circ, workers=WORKERS, chunk_qubits=3,
                              compressor="zlib",
                              enable_permutation_stages=True)
        assert rep.ok, rep.summary()

    def test_cpu_offload_fraction(self):
        rep = run_equivalence(get_workload("qft", 8), workers=WORKERS,
                              chunk_qubits=4, compressor="zlib",
                              cpu_offload_fraction=0.5)
        assert rep.ok, rep.summary()

    def test_multi_executor_round_robin(self):
        rep = run_equivalence(get_workload("qft", 8), workers=WORKERS,
                              chunk_qubits=4, compressor="zlib",
                              num_devices=2)
        assert rep.ok, rep.summary()

    def test_chunk_cache_layer(self):
        rep = run_equivalence(get_workload("qft", 8), workers=WORKERS,
                              chunk_qubits=4, compressor="zlib",
                              cache_chunks=3)
        assert rep.ok, rep.summary()

    def test_serpentine_off(self):
        rep = run_equivalence(get_workload("grover", 8), workers=WORKERS,
                              chunk_qubits=4, compressor="zlib",
                              serpentine_groups=False)
        assert rep.ok, rep.summary()

    def test_disk_store(self, tmp_path):
        rep = run_equivalence(get_workload("qft", 6), workers=WORKERS,
                              chunk_qubits=3, compressor="zlib",
                              store="disk",
                              disk_path=str(tmp_path / "eq.log"))
        assert rep.ok, rep.summary()

    def test_tiered_store_lossy_codec(self):
        """Tiered store under a byte budget with a lossy codec, streamed
        device: spill placement must never change bytes, so serial and
        parallel stay blob-for-blob identical. (No decompressed cache —
        a cache hit with a lossy codec legitimately skips requantization,
        which is a different data trajectory, not a determinism bug; the
        cache-present contract is covered losslessly below.) disk_path
        stays None so each run gets its own temp log."""
        from repro.device import DeviceSpec

        rep = run_equivalence(
            get_workload("vqe", 9), workers=WORKERS,
            chunk_qubits=4, compressor="szlike",
            compressor_options={"error_bound": 1e-6},
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            host_store_mb=0.001,
        )
        assert rep.ok, rep.summary()
        assert rep.state_bit_identical

    def test_full_hierarchy_belady_cache(self):
        """The whole stack at once — Belady cache over a budget-bound
        tiered store, streamed device, schedule-exact prefetch on the
        parallel side — bit-identical to serial execution."""
        from repro.device import DeviceSpec

        rep = run_equivalence(
            get_workload("vqe", 9), workers=WORKERS,
            chunk_qubits=4, compressor="zlib",
            device=DeviceSpec(memory_bytes=int(0.002 * (1 << 20))),
            cache_chunks=6,
            host_store_mb=0.001,
        )
        assert rep.ok, rep.summary()
        assert rep.state_bit_identical


class TestForcedExecutionModes:
    def test_parallel_engine_with_one_worker_matches_serial(self):
        """execution="parallel" at workers=1: engine path, inline codec."""
        rep = run_equivalence(get_workload("qft", 8), workers=1,
                              chunk_qubits=4, compressor="zlib")
        assert rep.ok, rep.summary()

    def test_workers1_auto_takes_serial_path(self):
        cfg = MemQSimConfig(chunk_qubits=4, compressor="zlib",
                            workers=1, execution="auto")
        res = MemQSim(cfg).run(get_workload("qft", 8))
        assert res.config_echo["execution"] == "serial"
        assert res.config_echo["workers"] == 1

    def test_unknown_execution_rejected(self):
        cfg = MemQSimConfig(execution="warp")
        with pytest.raises(ValueError, match="execution"):
            MemQSim(cfg).run(get_workload("ghz", 4))


class CrashOnNthCompress(ZlibCompressor):
    """Kills the hosting *worker* process on its n-th compress call."""

    name = "crash_on_nth"

    def __init__(self, parent_pid: int, nth: int = 2):
        super().__init__()
        self.parent_pid = parent_pid
        self.nth = nth
        self.calls = 0

    def compress(self, data):
        self.calls += 1
        if os.getpid() != self.parent_pid and self.calls >= self.nth:
            os._exit(13)
        return super().compress(data)


class TestWorkerCrashMidRun:
    def test_run_survives_worker_crash(self, caplog):
        """A worker dying mid-run degrades to serial: no hang, no corruption."""
        from repro.compression.interface import register_compressor

        parent = os.getpid()
        register_compressor(
            "crash_on_nth", lambda **kw: CrashOnNthCompress(parent, **kw))
        circ = get_workload("qft", 8)
        tel = Telemetry()
        cfg = MemQSimConfig(chunk_qubits=4, compressor="crash_on_nth",
                            workers=2, execution="parallel")
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            res = MemQSim(cfg, telemetry=tel).run(circ)
        assert any("degraded" in r.message for r in caplog.records)
        assert tel.metrics.snapshot()["counters"]["parallel.fallback"] >= 1
        # The store is not corrupted: state matches the pure-serial run.
        ref = MemQSim(MemQSimConfig(chunk_qubits=4, compressor="zlib",
                                    workers=1, execution="serial")).run(circ)
        np.testing.assert_array_equal(res.statevector(), ref.statevector())
