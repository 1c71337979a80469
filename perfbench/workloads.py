"""The benchmark's three workloads and their correctness checks.

Each workload is a seeded circuit plus one ``MemQSimConfig``. All three
use a 1 MiB simulated device, which forces streaming (chunks resolve to
2^14 amplitudes) at the sizes used here. Why each one is in the set, and
which layers it stresses or bypasses, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np

from repro.circuits.generators import qaoa_maxcut, qft, vqe_ansatz
from repro.compression.metrics import norm_error_bound
from repro.core import MemQSimConfig
from repro.device.spec import DeviceSpec

__all__ = ["Workload", "WORKLOADS", "check_state"]

DEVICE = DeviceSpec(memory_bytes=1 << 20)

#: lossless runs must reproduce the dense state to this absolute error
LOSSLESS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(num_qubits, seed) -> Circuit``
    circuit: Callable
    num_qubits: int
    #: ``disk_path -> MemQSimConfig``
    config: Callable

    def build(self, seed: int, num_qubits: int = 0):
        return self.circuit(num_qubits or self.num_qubits, seed)


def _qaoa(n: int, seed: int):
    graph = nx.random_regular_graph(3, n, seed=seed)
    return qaoa_maxcut(nx.convert_node_labels_to_integers(graph), p=2)


WORKLOADS = {
    w.name: w for w in (
        # Highly compressible, codec-bound, memory store, serial: the
        # no-change control for store, cache and engine changes.
        Workload(
            "qft-sz",
            lambda n, seed: qft(n),
            20,
            lambda disk_path: MemQSimConfig(
                compressor="szlike", device=DEVICE, workers=1),
        ),
        # Near-incompressible and lossless; the host budget is met by the
        # disk tier. The only workload with cache hits and disk I/O.
        Workload(
            "vqe-zlib-spill",
            lambda n, seed: vqe_ansatz(n, layers=3, seed=seed),
            18,
            lambda disk_path: MemQSimConfig(
                compressor="zlib", device=DEVICE, host_store_mb=1,
                cache_chunks=4, workers=1, disk_path=disk_path),
        ),
        # Moderately compressible, codec in two worker processes (the
        # parallel engine): where engine and worker changes show.
        Workload(
            "qaoa-sz-w2",
            _qaoa,
            20,
            lambda disk_path: MemQSimConfig(
                compressor="szlike", device=DEVICE, workers=2),
        ),
    )
}


def check_state(state: np.ndarray, dense: np.ndarray, compressor,
                gate_stages: int) -> dict:
    """Compare a streamed final state with the dense reference.

    Lossless codecs must match every amplitude to ``LOSSLESS_TOL``. For a
    lossy codec the tolerance comes from its configured error bound: each
    full recompression of the state (the initial encode plus one per gate
    stage) moves it by at most ``norm_error_bound(eb, N)`` in l2, and
    unitary gates preserve that distance, so the final l2 error is at
    most ``(gate_stages + 1) * norm_error_bound(eb, N)``.

    Returns the measured error, its tolerance, the normalised fidelity
    and ``ok``.
    """
    diff = state - dense
    if compressor.is_lossy:
        err = float(np.linalg.norm(diff))
        tol = (gate_stages + 1) * norm_error_bound(
            compressor.error_bound, dense.shape[0])
    else:
        err = float(np.max(np.abs(diff)))
        tol = LOSSLESS_TOL
    norms = float(np.vdot(dense, dense).real * np.vdot(state, state).real)
    fidelity = abs(np.vdot(dense, state)) ** 2 / norms if norms > 0 else 0.0
    ok = math.isfinite(err) and err <= tol and math.isfinite(fidelity)
    return {"error": err, "tolerance": tol, "fidelity": float(fidelity),
            "ok": bool(ok)}
