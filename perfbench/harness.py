"""One workload's measurement loop: untraced and traced runs.

A :class:`Runner` holds one seeded circuit and its config and runs it as
a single closed-loop client: one ``MemQSim.run`` at a time, each checked
against the ``DenseSimulator`` state of the same circuit, with dense runs
interleaved so the slowdown ratio compares like with like.
"""

from __future__ import annotations

import contextlib
from statistics import median
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core import MemQSim
from repro.pipeline.cancel import JobCancelled
from repro.statevector.simulator import DenseSimulator

from layers import LayerTrace, traced
from workloads import Workload, check_state

__all__ = ["SetupClock", "Sample", "Runner", "Tally", "Window",
           "layer_metrics", "measure_untraced", "measure_traced",
           "end_to_end_metrics", "per_layer_metrics"]

#: size of the untimed warm-up run (loads code paths, forks nothing big)
WARMUP_QUBITS = 12


class SetupClock:
    """A cancel token whose first poll marks the end of set-up.

    ``MemQSim(cancel=...)`` hands the token to the stage scheduler, which
    polls it before every stage and group pass. The first poll is the
    scheduler's entry, so ``first_poll - run() call`` is the set-up every
    run pays: store init, plan, compile and codec pool creation. It is an
    argument the public API takes, not a wrapper. With ``stop=True`` the
    first poll cancels the run, which then measures set-up alone.
    """

    def __init__(self, stop: bool = False) -> None:
        self.stop = stop
        self.first_poll: Optional[float] = None

    def raise_if_cancelled(self) -> None:
        if self.first_poll is None:
            self.first_poll = time.perf_counter()
            if self.stop:
                raise JobCancelled("set-up probe")


@dataclass
class Sample:
    """One checked streamed run."""

    wall_s: float
    setup_s: float
    peak_host_bytes: int
    check: dict
    layers: dict = field(default_factory=dict)
    #: bytes of the run's largest group buffer (the roof probe's size)
    group_bytes: int = 0


class Runner:
    def __init__(self, workload: Workload, seed: int, scratch_dir: Path):
        self.workload = workload
        self.seed = seed
        self.circuit = workload.build(seed)
        scratch_dir.mkdir(parents=True, exist_ok=True)
        self.disk_path = scratch_dir / f"{workload.name}-{seed}.log"
        self.config = workload.config(str(self.disk_path))
        self.compressor = self.config.make_compressor()
        self.reference = None
        self.group_bytes = 0

    def close(self) -> None:
        self.disk_path.unlink(missing_ok=True)

    def warmup(self) -> None:
        """Untimed runs that keep first-use costs out of the samples.

        A small streamed run loads every code path and a set-up-only run
        touches the full-size plan. Two full-size dense runs come last,
        the first giving the reference state: on the development host the
        first dense run after the reference was kept alive still ran up
        to 40% slower than the rest, paying for fresh heap pages.
        """
        small = self.workload.build(self.seed, WARMUP_QUBITS)
        self._checked_run(small, DenseSimulator().run(small).data, None)
        self.setup_only()
        self.reference = DenseSimulator().run(self.circuit).data
        self.dense()

    def setup_only(self) -> float:
        """Seconds from ``run()`` to the scheduler's entry, run cancelled."""
        clock = SetupClock(stop=True)
        sim = MemQSim(self.config, cancel=clock)
        t0 = time.perf_counter()
        try:
            sim.run(self.circuit)
        except JobCancelled:
            pass
        else:
            raise RuntimeError("set-up probe ran to completion")
        return clock.first_poll - t0

    def dense(self) -> float:
        t0 = time.perf_counter()
        DenseSimulator().run(self.circuit)
        return time.perf_counter() - t0

    def streamed(self, roofs: Optional[dict] = None) -> Sample:
        """One checked run; traced when ``roofs`` is given."""
        trace = LayerTrace() if roofs is not None else None
        sample = self._checked_run(self.circuit, self.reference, trace,
                                   roofs)
        self.group_bytes = sample.group_bytes
        return sample

    def _checked_run(self, circuit, dense_state, trace, roofs=None) -> Sample:
        clock = SetupClock()
        sim = MemQSim(self.config, cancel=clock)
        ctx = traced(trace, type(self.compressor)) if trace is not None \
            else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            result = sim.run(circuit)
            wall = time.perf_counter() - t0
        store = getattr(result.store, "inner", result.store)
        try:
            check = check_state(result.statevector(), dense_state,
                                self.compressor, result.plan.num_gate_stages)
            layers = {}
            if trace is not None:
                layers = layer_metrics(trace, result, wall, roofs)
        finally:
            close = getattr(store, "close", None)
            if close is not None:
                close()
        cq = result.config_echo["chunk_qubits"]
        group_bytes = (1 << (cq + result.plan.max_group_size)) \
            * result.store.dtype.itemsize
        return Sample(wall, clock.first_poll - t0, result.peak_host_bytes,
                      check, layers, group_bytes)


def layer_metrics(trace: LayerTrace, result, wall: float,
                  roofs: dict) -> dict:
    """Per-layer ``{name: (value, unit)}`` for one traced run."""
    s, n = trace.self_s, trace.nbytes
    self_sum = trace.self_sum()
    if self_sum > wall:
        raise RuntimeError(
            f"exclusive self times sum to {self_sum:.6f} s, more than the "
            f"run's wall time {wall:.6f} s")

    def rate(nbytes, seconds, scale):
        return nbytes / seconds / scale if seconds > 0 else 0.0

    cache = getattr(result.store, "cache_stats", None)
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    h2d_gbps = rate(n["device.h2d"], s["device.h2d"], 1e9)
    kernel_gbps = rate(trace.kernel_bytes, s["kernel"], 1e9)
    return {
        "codec.encode_s": (s["codec.encode"], "s"),
        "codec.encode_MBps": (rate(n["codec.encode"], s["codec.encode"],
                                   1e6), "MB/s"),
        "codec.decode_s": (s["codec.decode"], "s"),
        "codec.decode_MBps": (rate(n["codec.decode"], s["codec.decode"],
                                   1e6), "MB/s"),
        "codec.encode_calls": (trace.calls["codec.encode"], "count"),
        "codec.decode_calls": (trace.calls["codec.decode"], "count"),
        "codec.ratio": (result.compression_ratio, "ratio"),
        "store.self_s": (s["store"], "s"),
        "cache.self_s": (s["cache"], "s"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "fraction"),
        "disk.read_bytes": (n["disk.read"], "bytes"),
        "disk.write_bytes": (n["disk.write"], "bytes"),
        "disk.read_s": (s["disk.read"], "s"),
        "disk.write_s": (s["disk.write"], "s"),
        "device.h2d_s": (s["device.h2d"], "s"),
        "device.d2h_s": (s["device.d2h"], "s"),
        "device.h2d_GBps": (h2d_gbps, "GB/s"),
        "device.h2d_roof_frac": (h2d_gbps / roofs["roof.memcpy_GBps.group"],
                                 "fraction"),
        "kernel.s": (s["kernel"], "s"),
        "kernel.ops": (trace.kernel_ops, "count"),
        "kernel.GBps_computed": (kernel_gbps, "GB/s"),
        "kernel.roof_frac": (kernel_gbps / roofs["roof.stream_GBps.group"],
                             "fraction"),
        "plan.plan_s": (s["plan"], "s"),
        "compile.compile_s": (s["compile"], "s"),
        "compile.ops_out": (result.compile_report.ops_out, "count"),
        "pipeline.group_passes": (result.scheduler_stats.group_passes,
                                  "count"),
        "pipeline.other_s": (s["pipeline"], "s"),
        "pipeline.self_sum_s": (self_sum, "s"),
        "pipeline.unattributed_share": (1.0 - self_sum / wall, "fraction"),
        "parallel.pool_start_s": (s["parallel.pool_start"], "s"),
        "parallel.submit_s": (s["parallel.submit"], "s"),
        "parallel.collect_wait_s": (s["parallel.collect"], "s"),
        "parallel.pool_close_s": (s["parallel.pool_close"], "s"),
        "parallel.worker_codec_s": (trace.worker_codec_s, "s"),
        "parallel.inline_jobs": (sum(p.stats.inline_jobs
                                     for p in trace.pools), "count"),
        "trace.wall_s": (wall, "s"),
    }


class Tally:
    """Attempted/failed counts; a failed run is reported, never skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, fn) -> Optional[Sample]:
        self.attempted += 1
        try:
            sample = fn()
        except Exception:  # a raising run is a failed attempt; keep going
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            traceback.print_exc(file=sys.stderr)
            return None
        if not sample.check["ok"]:
            self.failed += 1
            self.failures.append(f"check failed: {sample.check}")
            print(f"perfbench: check failed: {sample.check}", file=sys.stderr)
            return None
        return sample


class Window:
    """A measurement window that ends before it would overrun.

    Another iteration starts only while the window still has room for
    one more of the longest seen so far, and always until ``minimum``
    iterations are done; a run therefore lasts about ``seconds`` however
    long one iteration takes.
    """

    def __init__(self, seconds: float, minimum: int) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.count = 0
        self._start = time.perf_counter()
        self._last = self._start
        self._longest = 0.0

    def next(self) -> bool:
        now = time.perf_counter()
        if self.count:
            self._longest = max(self._longest, now - self._last)
        self._last = now
        more = self.count < self.minimum or \
            now - self._start + self._longest <= self.seconds
        self.count += more
        return more


def measure_untraced(runner: Runner, seconds: float, min_samples: int,
                     setup_probes: int, tally: Tally) -> dict:
    """End-to-end samples: streamed runs alternating with dense runs.

    Every streamed run sits between two dense runs, and its slowdown is
    its wall time over their mean; pairing runs seconds apart cancels the
    host's speed drift, which a ratio of two whole-run medians keeps.
    Each streamed run is followed by ``setup_probes`` set-up-only runs,
    so the set-up median rests on many more samples than the wall median.
    """
    samples, slowdowns, setups = [], [], []
    dense = [runner.dense()]
    window = Window(seconds, min_samples)
    while window.next():
        sample = tally.run(runner.streamed)
        dense.append(runner.dense())
        if sample is not None:
            samples.append(sample)
            slowdowns.append(sample.wall_s / ((dense[-2] + dense[-1]) / 2))
            setups.append(sample.setup_s)
        setups.extend(runner.setup_only() for _ in range(setup_probes))
    return {"samples": samples, "dense": dense, "slowdowns": slowdowns,
            "setups": setups}


def measure_traced(runner: Runner, probe_roofs, seconds: float,
                   min_pairs: int, tally: Tally) -> dict:
    """Pairs of untraced and traced runs, plus dense runs for the ratio.

    The first pair runs untraced first, which fixes the group-buffer
    size; ``probe_roofs(group_bytes)`` is then measured once, before the
    first traced run needs it.
    """
    plain, traced_samples, dense = [], [], []
    roofs = None
    window = Window(seconds, min_pairs)
    while window.next():
        # Alternate which side runs first so drift hits both alike; the
        # first pair starts untraced, which fixes the group size.
        first_traced = window.count % 2 == 0
        for traced_run in (first_traced, not first_traced):
            if traced_run and roofs is None:
                roofs = probe_roofs(runner.group_bytes)
            sample = tally.run(
                lambda: runner.streamed(roofs if traced_run else None))
            if sample is not None:
                (traced_samples if traced_run else plain).append(sample)
        dense.append(runner.dense())
    return {"plain": plain, "traced": traced_samples, "dense": dense,
            "roofs": roofs}


def end_to_end_metrics(samples, slowdowns, setups) -> dict:
    return {
        "wall_s": (median([s.wall_s for s in samples]), "s"),
        "setup_s": (median(setups), "s"),
        "slowdown_vs_dense": (median(slowdowns), "ratio"),
        "peak_host_bytes": (median([s.peak_host_bytes for s in samples]),
                            "bytes"),
        "fidelity": (median([s.check["fidelity"] for s in samples]),
                     "fraction"),
    }


def per_layer_metrics(plain, traced_samples, dense, roofs) -> dict:
    names = traced_samples[0].layers
    out = {name: (median([s.layers[name][0] for s in traced_samples]),
                  unit) for name, (_, unit) in names.items()}
    out["dense.wall_s"] = (median(dense), "s")
    for name, value in roofs.items():
        out[name] = (value, "GB/s")
    out["trace.overhead"] = (
        out["trace.wall_s"][0] / median([s.wall_s for s in plain]), "ratio")
    return out
