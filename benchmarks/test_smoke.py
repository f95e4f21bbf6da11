"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that each workload reports every metric BENCHMARK.json names, with
its unit and zero failed operations, that each traced workload measures the
layers its design notes say it does, that a corrupted received message is
counted as a failed operation, and that the command refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = 0.5

# The per-layer metrics each workload measures itself; the others read 0.
MEASURED = {
    "offline_4ch": {"emd.ms_per_buffer_p50", "emd.ms_per_buffer_p95", "emd.imfs_per_buffer",
                    "ism.analyze_ms_per_buffer", "ism.self_ms_per_buffer",
                    "ism.fuse_us_per_call", "ism.synthesize_ns_per_sample",
                    "signal.lowfreq_ns_per_sample", "trace.overhead_pct"},
    "live_4ch": {"emd.ms_per_buffer_p50", "emd.ms_per_buffer_p95", "emd.imfs_per_buffer",
                 "ism.feed_ms_p50", "ism.feed_ms_p95", "ism.fuse_us_per_call",
                 "colormap.map_us_per_call", "wire.msg_build_us_per_msg",
                 "wire.send_us_per_msg", "wire.close_ms", "wire.decode_msgs_per_s",
                 "wire.bytes_per_feed", "wire.drops", "wire.resync_bytes",
                 "session.append_us_per_buffer", "live.gen_late_ms_p95",
                 "live.backlog_max_buffers", "trace.overhead_pct"},
    "session_roundtrip": {"emd.ms_per_buffer_p50", "emd.ms_per_buffer_p95",
                          "emd.imfs_per_buffer", "colormap.map_us_per_call",
                          "wire.msg_build_us_per_msg", "wire.send_us_per_msg",
                          "wire.close_ms", "wire.decode_msgs_per_s", "wire.bytes_per_feed",
                          "wire.drops", "wire.resync_bytes", "session.open_mb_per_s",
                          "session.replay_self_events_per_s", "session.write_mb_per_s",
                          "trajectory.build_us_per_pose",
                          "trajectory.export_ply_us_per_point", "trace.overhead_pct"},
}


def tiny(name: str, workdir: Path, tamper=None):
    if name == "offline_4ch":
        return workloads.Offline(1, job_s=10.0)
    if name == "live_4ch":
        return workloads.Live(1, str(workdir), TINY_SECONDS, tamper=tamper)
    return workloads.Roundtrip(1, str(workdir), session_s=10.0, tamper=tamper)


def flip_byte(offset: int):
    """A tamper that inverts the received byte at `offset` in the stream."""
    def tamper(position: int, data: bytes) -> bytes:
        if position <= offset < position + len(data):
            data = bytearray(data)
            data[offset - position] ^= 0xFF
            return bytes(data)
        return data
    return tamper


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(name, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = bench.measure(tiny(name, tmp_path), TINY_SECONDS, False, units)
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_run_measures_its_layers(name, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert MEASURED[name] <= set(units)
    workload = tiny(name, tmp_path)
    workload.setup()
    tracer = tracing.Tracer()
    outcome = workload.run(TINY_SECONDS, tracer)
    assert outcome.failed == 0
    assert set(outcome.layers) == MEASURED[name]
    assert all(math.isfinite(v) for v in outcome.layers.values())
    assert tracer.spans and all(end >= start for _, start, end, _, _ in tracer.spans)
    tracer.write(tmp_path / "trace.json")
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


@pytest.mark.parametrize("name", ["live_4ch", "session_roundtrip"])
def test_corrupted_message_counts_as_failed(name, tmp_path):
    # byte 100 of the stream lies in the header of the second IntensityOnly,
    # after Hello (17 bytes), a Frame (54) and an IntensityOnly (21)
    workload = tiny(name, tmp_path, tamper=flip_byte(100))
    workload.setup()
    outcome = workload.run(TINY_SECONDS)
    assert outcome.attempted >= 1
    assert 1 <= outcome.failed <= outcome.attempted


def test_command_prints_result_last(tmp_path):
    out = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "live_4ch",
                          "--seed", "2", "--seconds", str(TINY_SECONDS), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    assert env["seed"] == 2 and env["reference_loop_s_before"] > 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "live_4ch",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
