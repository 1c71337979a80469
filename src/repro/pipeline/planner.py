"""The offline stage: partition a circuit into chunk-residency stages.

Given the chunk layout and the device's group capacity, the planner walks
the gate list once and greedily packs gates into stages (paper: "MEMQSim
partitions the input circuit and the corresponding state vector"):

* **diagonal gates never force grouping** — a diagonal multiplies each
  amplitude in place, so whatever its qubits, each chunk can apply its own
  restriction of the diagonal (the chunk id fixes the global bits);
* **pure chunk permutations** (X on a global qubit; SWAP between global
  qubits) become :class:`PermutationStage`s executed on compressed blobs;
* any other gate contributes its global qubits to the current stage's
  group; when the union would exceed ``max_group_qubits``, the stage is
  closed and a new one opened.

``max_group_qubits`` is derived from the device: a group buffer of
``2^(chunk_qubits + t)`` amplitudes must fit in the arena (with one buffer
of headroom for double-buffered pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, gate_is_diagonal, make_gate
from ..device.spec import DeviceSpec
from ..memory.layout import ChunkLayout
from ..telemetry import get_logger
from .stages import GateStage, PermutationStage

log = get_logger(__name__)

__all__ = ["plan_stages", "max_group_qubits_for", "PlanReport", "describe_plan"]


def max_group_qubits_for(layout: ChunkLayout, device: DeviceSpec,
                         double_buffer: bool = True) -> int:
    """Largest ``t`` such that a group buffer fits the device arena.

    Byte math uses ``layout.itemsize``, so a complex64 layout fits groups
    one qubit wider than complex128 in the same device memory.
    """
    copies = 2 if double_buffer else 1
    item = layout.itemsize
    t = 0
    while True:
        need = copies * (1 << (layout.chunk_qubits + t + 1)) * item
        if need > device.memory_bytes or layout.chunk_qubits + t + 1 > layout.num_qubits:
            break
        t += 1
    if (1 << layout.chunk_qubits) * item * copies > device.memory_bytes:
        raise ValueError(
            f"chunk of {layout.chunk_qubits} qubits does not fit device memory "
            f"{device.memory_bytes:,}B (x{copies} buffers)"
        )
    return t


def _permutation_of(g: Gate, layout: ChunkLayout) -> Optional[Tuple[int, ...]]:
    """If ``g`` is a pure chunk-id permutation, return it (dst -> src)."""
    c = layout.chunk_qubits
    nc = layout.num_chunks
    if g.name == "x" and not layout.is_local(g.qubits[0]):
        bit = 1 << (g.qubits[0] - c)
        return tuple(k ^ bit for k in range(nc))
    if g.name == "swap":
        a, b = g.qubits
        if not layout.is_local(a) and not layout.is_local(b):
            ba, bb = a - c, b - c
            perm = []
            for k in range(nc):
                va = (k >> ba) & 1
                vb = (k >> bb) & 1
                src = k & ~(1 << ba) & ~(1 << bb) | (vb << ba) | (va << bb)
                perm.append(src)
            return tuple(perm)
    return None


def _lower_oversized_gate(g: Gate, layout: ChunkLayout,
                          max_group_qubits: int) -> List[Gate]:
    """SWAP-conjugate a gate whose global-qubit count exceeds the cap.

    Classic distributed-SV lowering: swap surplus global qubits with unused
    local qubits, apply the relabeled gate, swap back. Each inserted
    ``swap(local, global)`` touches a single global qubit, so it always fits
    a cap of >= 1.
    """
    gq = sorted(layout.global_qubits(g.qubits))
    surplus = len(gq) - max_group_qubits
    free_locals = [q for q in range(layout.chunk_qubits) if q not in g.qubits]
    if max_group_qubits < 1 or surplus > len(free_locals):
        raise ValueError(
            f"gate {g} needs {len(gq)} co-resident global qubits but the "
            f"device only supports groups of {max_group_qubits} and only "
            f"{len(free_locals)} local qubits are free for swap lowering; "
            f"increase device memory or reduce chunk size"
        )
    victims = gq[:surplus]
    homes = free_locals[:surplus]
    mapping = {q: q for q in g.qubits}
    out: List[Gate] = []
    for loc, glob in zip(homes, victims):
        out.append(make_gate("swap", (loc, glob)))
        mapping[glob] = loc
    out.append(g.remapped(mapping))
    for loc, glob in zip(homes, victims):
        out.append(make_gate("swap", (loc, glob)))
    return out


def plan_stages(
    circuit: Circuit,
    layout: ChunkLayout,
    max_group_qubits: int,
    enable_permutation_stages: bool = True,
) -> List[object]:
    """Partition ``circuit`` into execution stages (see module docstring)."""
    if max_group_qubits < 0:
        raise ValueError("max_group_qubits must be >= 0")
    stages: List[object] = []
    current: Optional[GateStage] = None

    def close() -> None:
        nonlocal current
        if current is not None and current.gates:
            stages.append(current)
        current = None

    def process(g: Gate) -> None:
        nonlocal current
        perm = _permutation_of(g, layout) if enable_permutation_stages else None
        if perm is not None:
            close()
            # Merge consecutive permutations into one relabeling.
            if stages and isinstance(stages[-1], PermutationStage):
                prev: PermutationStage = stages[-1]
                # composed(dst) = prev.perm[perm[dst]]  (apply prev, then g)
                composed = tuple(prev.perm[perm[d]] for d in range(len(perm)))
                stages[-1] = PermutationStage(composed, prev.gates + [g])
            else:
                stages.append(PermutationStage(perm, [g]))
            return
        if gate_is_diagonal(g):
            # Never forces grouping; joins whatever stage is open.
            if current is None:
                current = GateStage(group_qubits=())
            current.gates.append(g)
            return
        gq = set(layout.global_qubits(g.qubits))
        if len(gq) > max_group_qubits:
            for piece in _lower_oversized_gate(g, layout, max_group_qubits):
                process(piece)
            return
        if current is None:
            current = GateStage(group_qubits=tuple(sorted(gq)))
            current.gates.append(g)
            return
        union = set(current.group_qubits) | gq
        if len(union) <= max_group_qubits:
            current.group_qubits = tuple(sorted(union))
            current.gates.append(g)
        else:
            close()
            current = GateStage(group_qubits=tuple(sorted(gq)))
            current.gates.append(g)

    for g in circuit:
        process(g)
    close()
    log.debug("planned %d gates into %d stages (t_max=%d)",
              len(circuit), len(stages), max_group_qubits)
    return stages


@dataclass
class PlanReport:
    """Summary statistics of a stage plan (experiment A4's fingerprint)."""

    num_stages: int
    num_gate_stages: int
    num_permutation_stages: int
    num_local_stages: int
    gates_total: int
    gates_in_local_stages: int
    max_group_size: int
    group_passes: int  # total (stage, group) executions = codec traffic unit


def describe_plan(stages: Sequence[object], layout: ChunkLayout) -> PlanReport:
    """Compute the plan fingerprint used by benchmarks."""
    gate_stages = [s for s in stages if isinstance(s, GateStage)]
    perm_stages = [s for s in stages if isinstance(s, PermutationStage)]
    local = [s for s in gate_stages if s.is_local]
    passes = 0
    max_group = 0
    for s in gate_stages:
        t = s.num_group_qubits
        max_group = max(max_group, t)
        passes += layout.num_chunks >> t  # number of groups in this stage
    return PlanReport(
        num_stages=len(stages),
        num_gate_stages=len(gate_stages),
        num_permutation_stages=len(perm_stages),
        num_local_stages=len(local),
        gates_total=sum(len(s.gates) for s in gate_stages)
        + sum(len(s.gates) for s in perm_stages),
        gates_in_local_stages=sum(len(s.gates) for s in local),
        max_group_size=max_group,
        group_passes=passes,
    )
