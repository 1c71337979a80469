"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.core import MemQSimConfig
from repro.device import DeviceSpec

DEVICE_MB = 0.002
DEVICE = DeviceSpec(memory_bytes=int(DEVICE_MB * (1 << 20)))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "qft"])
        assert args.workload == "qft"
        assert args.qubits == 12
        assert args.compressor == "szlike"


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "qft" in out and "grover" in out

    def test_compressors_list(self, capsys):
        assert main(["compressors"]) == 0
        out = capsys.readouterr().out
        assert "szlike" in out and "lossless" in out

    def test_compressors_evaluate(self, capsys):
        assert main(["compressors", "--evaluate", "ghz", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out or "x" in out

    def test_run_workload(self, capsys):
        rc = main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--device-mb", "0.01", "--shots", "50", "--seed", "3",
            "--compare-dense",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MEMQSim result" in out
        assert "fidelity vs dense" in out
        assert "top outcomes" in out

    def test_run_with_checkpoint_roundtrip(self, tmp_path, capsys):
        ck = tmp_path / "state.mqs"
        assert main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--compressor", "zlib", "--save-state", str(ck),
        ]) == 0
        assert ck.exists()
        assert main([
            "run", "ghz", "-n", "8", "--chunk-qubits", "4",
            "--compressor", "zlib", "--checkpoint", str(ck),
        ]) == 0
        # ghz twice: h0 + cx chain applied twice returns near |0..0>... not
        # exactly; just confirm it ran and reported.
        assert "MEMQSim result" in capsys.readouterr().out

    def test_run_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "c.qasm"
        qasm.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
        )
        assert main(["run", "--qasm", str(qasm), "--compressor", "zlib",
                     "--chunk-qubits", "2", "--device-mb", "0.01"]) == 0
        assert "MEMQSim result" in capsys.readouterr().out

    def test_run_without_workload_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_plan(self, capsys):
        assert main(["plan", "qft", "-n", "10", "--chunk-qubits", "5"]) == 0
        out = capsys.readouterr().out
        assert "stages" in out and "group passes" in out


class _Captured(Exception):
    pass


def captured_config(monkeypatch, argv) -> MemQSimConfig:
    """The config a command hands to ``MemQSim`` (the run never starts)."""
    seen = {}

    def stub(cfg, *args, **kwargs):
        seen["cfg"] = cfg
        raise _Captured

    monkeypatch.setattr("repro.cli.MemQSim", stub)
    with pytest.raises(_Captured):
        main(argv)
    return seen["cfg"]


class TestConfigFromArgs:
    def test_audit_pins_serial_no_cache_no_offload(self, monkeypatch):
        cfg = captured_config(monkeypatch, [
            "audit", "qft", "-n", "8", "--compressor", "szlike",
            "--error-bound", "1e-5", "--chunk-qubits", "4",
            "--device-mb", str(DEVICE_MB), "--precision", "c64",
            "--host-store-mb", "0.001", "--no-serpentine",
        ])
        assert cfg == MemQSimConfig(
            chunk_qubits=4, compressor="szlike",
            compressor_options={"error_bound": 1e-5}, device=DEVICE,
            precision="c64", host_store_mb=0.001, serpentine_groups=False,
            execution="serial", cache_chunks=0, cpu_offload_fraction=0.0,
        )

    def test_memtrace_pins_serial(self, monkeypatch):
        cfg = captured_config(monkeypatch, [
            "memtrace", "qft", "-n", "8", "--compressor", "zlib",
            "--device-mb", str(DEVICE_MB), "--cache-chunks", "6",
        ])
        assert cfg == MemQSimConfig(
            compressor="zlib", device=DEVICE, cache_chunks=6,
            execution="serial")

    def test_run_copies_every_knob(self, monkeypatch):
        cfg = captured_config(monkeypatch, [
            "run", "qft", "-n", "8", "--compressor", "zlib",
            "--chunk-qubits", "4", "--device-mb", str(DEVICE_MB),
            "--transfer", "async", "--offload", "0.25", "--fuse",
            "--max-fuse-qubits", "2", "--cache-chunks", "3",
            "--store", "disk", "--devices", "2", "--workers", "1",
            "--execution", "serial", "--monitor", "--monitor-interval", "7",
        ])
        assert cfg == MemQSimConfig(
            chunk_qubits=4, compressor="zlib", device=DEVICE,
            transfer="async", cpu_offload_fraction=0.25, fuse_gates=True,
            max_fuse_qubits=2, cache_chunks=3, store="disk", num_devices=2,
            workers=1, execution="serial", monitor_interval_ms=7.0)

    def test_serve_base_config(self):
        args = build_parser().parse_args([
            "serve", "--device-mb", str(DEVICE_MB), "--compressor", "zlib",
            "--workers", "2", "--host", "0.0.0.0"])
        assert _config_from_args(args) == MemQSimConfig(
            compressor="zlib", device=DEVICE, workers=2)

    def test_no_cache_policy_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "qft", "--cache-policy", "lru"])

    def test_negative_cache_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "qft", "--cache-chunks", "-1"])


class TestMemtraceCommand:
    ARGV = ["memtrace", "qft", "-n", "8", "--chunk-qubits", "3",
            "--compressor", "zlib", "--device-mb", str(DEVICE_MB),
            "--cache-chunks", "4", "--json"]

    def run(self, capsys, *extra):
        assert main(self.ARGV + list(extra)) == 0
        return json.loads(capsys.readouterr().out)

    def test_live_cache_hits_the_belady_bound(self, capsys):
        d = self.run(capsys)
        assert d["policy"] == "lru"
        assert d["live_misses"] == d["belady_misses"] <= d["lru_misses"]
        assert d["measured_misses"] is None  # LRU only runs as a replay

    def test_policy_selects_the_replay_only(self, capsys):
        lru = self.run(capsys)
        mru = self.run(capsys, "--policy", "mru")
        bel = self.run(capsys, "--policy", "belady")
        assert lru["live_misses"] == mru["live_misses"] == bel["live_misses"]
        assert mru["policy"] == "mru"
        assert bel["measured_misses"] == bel["policy_misses"] \
            == bel["belady_misses"]
