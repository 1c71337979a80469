"""MEMQSim end-to-end benchmark: streamed vs dense, one workload per call.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qft-sz --seed 1 --seconds 40 --trace 0

``--trace 0`` measures untraced runs and prints the end-to-end metrics;
``--trace 1`` interleaves untraced and traced runs and prints the
per-layer metrics, the measured roofs and the tracing overhead. Every run
is checked against the dense simulator; a run that raises or fails the
check counts in ``failed``.

Stdout ends with two JSON lines: a detail record (host fingerprint,
every sample, error rate, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``. Workloads and metrics
are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread. The kernels' small matrix products gain nothing from
# OpenBLAS's second thread, whose spinning competes with the codec
# workers for the cores and adds run-to-run noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
#: runtime files (the vqe-zlib-spill disk log) stay inside the checkout
SCRATCH = ROOT / ".bench_build" / "perfbench"

#: fewest untraced samples / traced pairs a run takes, however short
MIN_SAMPLES = 3
MIN_PAIRS = 2
#: set-up-only runs after each streamed run (each takes ~10 ms)
SETUP_PROBES = 10


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro  # the simulator under test
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        # An installed copy elsewhere would be measured instead.
        print(f"perfbench: imported {repro.__file__}, not the checkout's "
              f"{src}", file=sys.stderr)
        return 2

    import harness
    import hostinfo
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    seed = args.seed % (1 << 32)
    runner = harness.Runner(WORKLOADS[args.workload], seed, SCRATCH)
    tally = harness.Tally()
    try:
        runner.warmup()
        if args.trace:
            got = harness.measure_traced(runner, hostinfo.probe_roofs,
                                         args.seconds, MIN_PAIRS, tally)
            if not got["traced"] or not got["plain"]:
                print("perfbench: no traced/untraced pair passed its check",
                      file=sys.stderr)
                return 1
            metrics = harness.per_layer_metrics(
                got["plain"], got["traced"], got["dense"], got["roofs"])
            samples = {"untraced_wall_s": [s.wall_s for s in got["plain"]],
                       "traced_wall_s": [s.wall_s for s in got["traced"]],
                       "dense_s": got["dense"]}
        else:
            got = harness.measure_untraced(runner, args.seconds,
                                           MIN_SAMPLES, SETUP_PROBES, tally)
            if not got["samples"]:
                print("perfbench: no run passed its check", file=sys.stderr)
                return 1
            metrics = harness.end_to_end_metrics(
                got["samples"], got["slowdowns"], got["setups"])
            samples = {"wall_s": [s.wall_s for s in got["samples"]],
                       "setup_s": got["setups"],
                       "dense_s": got["dense"],
                       "check": [s.check for s in got["samples"]]}
    finally:
        runner.close()

    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "host": hostinfo.fingerprint(runner.group_bytes),
        "samples": samples,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
    }
    print(json.dumps({"detail": detail}, allow_nan=False))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
