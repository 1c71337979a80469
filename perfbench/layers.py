"""Per-layer tracing for the traced benchmark run.

The traced run times calls into each layer's public functions from the
outside: :func:`traced` temporarily replaces those functions with timing
wrappers and restores every original when it exits. Nothing under
``src/`` is modified, and the untraced run never installs a wrapper.

Attribution is exclusive. Every wrapped call pushes a frame; when it
returns, its duration minus the time covered by wrapped calls nested
inside it is booked as the layer's *self* time. Self times therefore
never double count, and their sum over all layers is at most the wall
time of the enclosing ``MemQSim.run``.

Only the parent process's main thread is recorded. Codec worker
processes are forked while the wrappers are installed, so they inherit
the wrapped classes; each wrapper checks the pid and thread first and
runs the original untimed anywhere else. Worker codec time is taken from
the ``CodecResult.seconds`` each collected job carries and reported on
its own, never summed into the parent's self times.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import defaultdict

import repro.core.memqsim as memqsim_mod
from repro.compression.interface import Compressor
from repro.device.executor import DeviceExecutor
from repro.memory.cache import ChunkCache
from repro.memory.chunkstore import CompressedChunkStore
from repro.memory.diskstore import BlobLog, DiskChunkStore
from repro.memory.hierarchy import TieredChunkStore
from repro.parallel.engine import ParallelStageScheduler
from repro.parallel.pool import CodecWorkerPool
from repro.pipeline.scheduler import StageScheduler

__all__ = ["LayerTrace", "traced", "method_targets", "FUNCTION_TARGETS"]

_STORE_CLASSES = (CompressedChunkStore, DiskChunkStore, TieredChunkStore)
_STORE_METHODS = ("load", "store", "get_blob", "put_blob", "will_need")


def method_targets(compressor_cls):
    """``(class, method name, layer)`` for every wrapped method.

    A method is wrapped on each class that defines it in its own
    ``__dict__``, so an override (``TieredChunkStore.load``) is timed as
    well as the base it may call into.
    """
    targets = []

    def add(classes, names, layer):
        for cls in classes:
            for name in names:
                if name in vars(cls):
                    targets.append((cls, name, layer))

    codec_classes = [c for c in compressor_cls.__mro__
                     if c is not object and c is not Compressor]
    add(codec_classes, ("compress",), "codec.encode")
    add(codec_classes, ("decompress",), "codec.decode")
    add(_STORE_CLASSES, _STORE_METHODS, "store")
    add((ChunkCache,), ("load", "store", "flush"), "cache")
    add((BlobLog,), ("read",), "disk.read")
    add((BlobLog,), ("append",), "disk.write")
    add((DeviceExecutor,), ("upload",), "device.h2d")
    add((DeviceExecutor,), ("download",), "device.d2h")
    add((DeviceExecutor,), ("run_ops",), "kernel")
    add((StageScheduler, ParallelStageScheduler), ("run",), "pipeline")
    add((CodecWorkerPool,), ("__init__",), "parallel.pool_start")
    add((CodecWorkerPool,), ("submit_compress", "submit_decompress"),
        "parallel.submit")
    add((CodecWorkerPool,), ("collect",), "parallel.collect")
    add((CodecWorkerPool,), ("close",), "parallel.pool_close")
    return targets


#: module-level functions, wrapped where ``MemQSim.run`` looks them up
FUNCTION_TARGETS = (
    (memqsim_mod, "plan_stages", "plan"),
    (memqsim_mod, "compile_stages", "compile"),
)


class LayerTrace:
    """Exclusive self times, call counts and byte counts per layer."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.kernel_ops = 0
        self.kernel_bytes = 0
        self.worker_codec_s = 0.0
        self.pools = []
        #: wrapped calls executed in the recording thread, ever
        self.wrapper_calls = 0
        self._stack = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    def self_sum(self) -> float:
        """Parent-thread time inside any wrapped call, counted once."""
        return sum(self.self_s.values())

    def _note(self, layer, args, out) -> None:
        """Count the work a finished call did (bytes, ops, worker time)."""
        if layer == "codec.encode":
            self.nbytes[layer] += args[1].nbytes
        elif layer == "codec.decode":
            self.nbytes[layer] += out.nbytes
        elif layer == "disk.read":
            self.nbytes[layer] += len(out)
        elif layer == "disk.write":
            self.nbytes[layer] += len(args[1])
        elif layer in ("device.h2d", "device.d2h"):
            host = args[1] if layer == "device.h2d" else args[2]
            self.nbytes[layer] += host.nbytes
        elif layer == "kernel":
            ops = len(args[2])
            self.kernel_ops += ops
            # Computed, not measured: each op reads and writes the buffer.
            self.kernel_bytes += ops * args[1].nbytes * 2
        elif layer == "parallel.collect":
            if out.worker_pid:
                self.worker_codec_s += out.seconds
        elif layer == "parallel.pool_start":
            self.pools.append(args[0])

    def wrap(self, layer, fn):
        pid, tid, stack = self._pid, self._tid, self._stack

        def wrapper(*args, **kwargs):
            if os.getpid() != pid or threading.get_ident() != tid:
                return fn(*args, **kwargs)
            self.wrapper_calls += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dt
            self._note(layer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


@contextlib.contextmanager
def traced(trace: LayerTrace, compressor_cls):
    """Install ``trace``'s wrappers for the body; restore all on exit."""
    saved = []
    try:
        for cls, name, layer in method_targets(compressor_cls):
            orig = vars(cls)[name]
            saved.append((cls, name, orig))
            setattr(cls, name, trace.wrap(layer, orig))
        for mod, name, layer in FUNCTION_TARGETS:
            orig = getattr(mod, name)
            saved.append((mod, name, orig))
            setattr(mod, name, trace.wrap(layer, orig))
        yield trace
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
