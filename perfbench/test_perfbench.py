"""Tests for the benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench``. They
use small circuits and a fixed roof table, so no probe allocates the
DRAM-sized buffers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from repro.compression import get_compressor  # noqa: E402
from repro.device.spec import DeviceSpec  # noqa: E402
from workloads import WORKLOADS, check_state  # noqa: E402

ROOFS = {"roof.memcpy_GBps.group": 10.0, "roof.stream_GBps.group": 10.0,
         "roof.memcpy_GBps.dram": 5.0, "roof.stream_GBps.dram": 5.0}


def small(name, num_qubits, **updates):
    """The named workload at a test size, with config overrides."""
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, num_qubits=num_qubits,
        config=lambda path: w.config(path).with_updates(**updates))


def all_targets(compressor_cls):
    targets = [(cls, name) for cls, name, _ in
               layers.method_targets(compressor_cls)]
    targets += [(mod, name) for mod, name, _ in layers.FUNCTION_TARGETS]
    return targets


def snapshot(compressor_cls):
    out = {}
    for owner, name in all_targets(compressor_cls):
        attr = vars(owner)[name]
        out[(owner, name)] = attr
        assert not hasattr(attr, "__wrapped__"), (owner, name)
    return out


@pytest.fixture
def runner(tmp_path):
    made = []

    def make(workload, seed=3):
        r = harness.Runner(workload, seed, tmp_path)
        made.append(r)
        r.warmup()
        return r

    yield make
    for r in made:
        r.close()


def test_untraced_run_executes_no_wrapper(runner, monkeypatch):
    r = runner(small("qaoa-sz-w2", 12))
    cls = type(r.compressor)
    originals = snapshot(cls)
    entered = []
    real_traced = harness.traced

    def spy(trace, compressor_cls):
        entered.append(trace)
        return real_traced(trace, compressor_cls)

    monkeypatch.setattr(harness, "traced", spy)
    sample = r.streamed()
    assert sample.check["ok"] and not sample.layers
    assert entered == []
    assert snapshot(cls) == originals

    # Positive control: the traced run does install and run wrappers,
    # and leaves every original back in place.
    traced_sample = r.streamed(ROOFS)
    assert len(entered) == 1 and entered[0].wrapper_calls > 0
    assert traced_sample.layers
    assert snapshot(cls) == originals


def test_traced_restores_originals_on_error():
    cls = type(get_compressor("szlike"))
    originals = snapshot(cls)
    with pytest.raises(RuntimeError):
        with layers.traced(layers.LayerTrace(), cls):
            assert vars(cls)["compress"] is not originals[(cls, "compress")]
            raise RuntimeError("boom")
    assert snapshot(cls) == originals


def test_self_times_are_exclusive():
    trace = layers.LayerTrace()

    def inner():
        time.sleep(0.02)

    wrapped_inner = trace.wrap("store", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_outer = trace.wrap("pipeline", outer)
    t0 = time.perf_counter()
    wrapped_outer()
    wall = time.perf_counter() - t0
    assert trace.self_s["store"] >= 0.02
    assert 0.01 <= trace.self_s["pipeline"] < 0.02
    assert trace.self_sum() <= wall
    assert trace.calls == {"store": 1, "pipeline": 1}


def test_forked_child_runs_wrappers_unrecorded():
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs the fork start method")
    trace = layers.LayerTrace()
    fn = trace.wrap("store", lambda: None)
    ctx = mp.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        fn()
        send.send(trace.wrapper_calls)

    proc = ctx.Process(target=child)
    proc.start()
    assert recv.poll(30)
    child_calls = recv.recv()
    proc.join(30)
    assert not proc.is_alive() and proc.exitcode == 0
    assert child_calls == 0
    fn()
    assert trace.wrapper_calls == 1


def test_check_state_tolerances():
    rng = np.random.default_rng(0)
    dense = rng.normal(size=64) + 1j * rng.normal(size=64)
    dense /= np.linalg.norm(dense)
    zlib = get_compressor("zlib")
    assert check_state(dense.copy(), dense, zlib, 5)["ok"]
    assert not check_state(dense + 1e-9, dense, zlib, 5)["ok"]

    sz = get_compressor("szlike")
    ok = check_state(dense + sz.error_bound, dense, sz, 5)
    assert ok["ok"] and ok["fidelity"] > 0.999
    bad = check_state(dense + 100 * sz.error_bound, dense, sz, 5)
    assert not bad["ok"]


def test_failed_check_counts_in_failed():
    tally = harness.Tally()
    bad = harness.Sample(1.0, 0.1, 1, {"ok": False})
    assert tally.run(lambda: bad) is None
    assert tally.run(lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (2, 2)


@pytest.mark.parametrize("name, n, updates, expect", [
    ("qaoa-sz-w2", 14, {}, ("parallel.worker_codec_s",
                            "parallel.submit_s")),
    # Small chunks and a device that holds two-chunk groups, as at full
    # size, so the cache hits and the store spills.
    ("vqe-zlib-spill", 13, {"chunk_qubits": 9, "host_store_mb": 0.05,
                            "device": DeviceSpec(memory_bytes=1 << 15)},
     ("cache.hits", "disk.read_bytes", "disk.write_bytes")),
    ("qft-sz", 14, {}, ("codec.encode_s", "codec.decode_s", "kernel.ops")),
])
def test_traced_run_reports_layers(runner, name, n, updates, expect):
    r = runner(small(name, n, **updates))
    sample = r.streamed(ROOFS)
    assert sample.check["ok"], sample.check
    m = sample.layers
    for key in expect:
        assert m[key][0] > 0, key
    assert m["pipeline.self_sum_s"][0] <= m["trace.wall_s"][0]
    assert 0.0 <= m["pipeline.unattributed_share"][0] < 1.0


def test_metric_names_match_benchmark_json(runner):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["command"][1:2]) == {"perfbench/run.py"}
    r = runner(small("qft-sz", 12))
    plain, traced_sample = r.streamed(), r.streamed(ROOFS)
    e2e = harness.end_to_end_metrics([plain], [5.0], [r.setup_only()])
    per_layer = harness.per_layer_metrics([plain], [traced_sample], [0.1],
                                          ROOFS)
    for section, got in (("end_to_end", e2e), ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == {k: unit for k, (_, unit) in got.items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
