"""The scheduler's per-stage remap memo must be invisible.

``StageScheduler._ops_for_group`` remaps each (op, fixed chunk-id bits)
pair once per stage and reuses it across groups. These tests pit it
against calling :func:`remap_gate_for_group` for every op of every group,
gate for gate, and check that whole runs stay bit-identical.
"""

import numpy as np
import pytest

from repro.circuits import get_workload
from repro.compile import CompiledGateStage, CompileOptions, GateOp, compile_stages
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec, Timeline
from repro.memory import ChunkLayout
from repro.parallel import run_equivalence
from repro.pipeline import StageScheduler, plan_stages, remap_gate_for_group

N, CHUNK = 12, 6
#: an 8 KiB device forces several chunk groups per stage at 64-amp chunks
STREAMED = {"chunk_qubits": CHUNK, "device": DeviceSpec(memory_bytes=1 << 13)}


def _reference_ops(self, stage, placement, base_chunk):
    """The un-memoized remap: every op of every group."""
    out = []
    for op in stage.ops:
        rg = remap_gate_for_group(op.to_gate(), self.layout, placement,
                                  base_chunk)
        if rg is None:
            self.stats.gates_skipped_identity += 1
        else:
            out.append(GateOp(rg))
    return out


def _same_gate(a, b):
    ga, gb = a.to_gate(), b.to_gate()
    if (ga.name, ga.qubits, ga.params) != (gb.name, gb.qubits, gb.params):
        return False
    if (ga.diag is None) != (gb.diag is None):
        return False
    if ga.diag is not None:
        return np.array_equal(ga.diag, gb.diag)
    return np.array_equal(ga.matrix, gb.matrix)


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("workload", ["qft", "qaoa"])
def test_memoized_ops_match_per_group_remap(workload, fusion):
    layout = ChunkLayout(N, CHUNK)
    stages = compile_stages(
        plan_stages(get_workload(workload, N), layout, max_group_qubits=2),
        layout, CompileOptions(fusion=fusion)).stages
    memo = StageScheduler(layout, None, None, None, Timeline())
    ref = StageScheduler(layout, None, None, None, Timeline())
    groups = 0
    for stage in stages:
        if not isinstance(stage, CompiledGateStage):
            continue
        placement = layout.chunk_groups(stage.group_qubits)
        for members in placement.groups:
            got = memo._ops_for_group(stage, placement, members[0])
            want = _reference_ops(ref, stage, placement, members[0])
            assert len(got) == len(want)
            assert all(_same_gate(a, b) for a, b in zip(got, want))
            groups += 1
    assert groups > len(stages)  # several groups per stage were compared
    assert memo.stats.gates_skipped_identity == \
        ref.stats.gates_skipped_identity
    if workload == "qft":  # controlled phases on a fixed 0 bit drop out
        assert ref.stats.gates_skipped_identity > 0


@pytest.mark.parametrize("workload", ["qft", "qaoa"])
def test_memoized_run_is_bit_identical(workload, monkeypatch):
    circ = get_workload(workload, N)
    cfg = MemQSimConfig(compressor="zlib", **STREAMED)
    fast = MemQSim(cfg).run(circ)
    assert fast.scheduler_stats.group_passes > 50
    monkeypatch.setattr(StageScheduler, "_ops_for_group", _reference_ops)
    slow = MemQSim(cfg).run(circ)
    assert np.array_equal(fast.statevector(), slow.statevector())
    assert fast.scheduler_stats.gates_skipped_identity == \
        slow.scheduler_stats.gates_skipped_identity


@pytest.mark.parametrize("workload", ["qft", "qaoa"])
def test_parallel_equivalence_with_memo(workload):
    rep = run_equivalence(get_workload(workload, N), workers=2,
                          compressor="szlike",
                          compressor_options={"error_bound": 1e-6},
                          **STREAMED)
    assert rep.ok, rep.summary()
    assert rep.state_max_abs_diff == 0.0
