"""Run one ismkit benchmark workload and print its result as JSON.

    python3 benchmarks/bench.py --workload offline_4ch --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`. Inputs
are made from the seed in set-up, which is repeated `SETUP_REPEATS` times
and reported as its median. The workload then runs for `--seconds`. With
`--trace 0` the result holds the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics, and the
spans are written to `.bench_work/traces/`. The line before the result is
the run's environment record, with a host-speed reference loop timed before
and after the workload. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
WORKLOADS = ("offline_4ch", "live_4ch", "session_roundtrip")


def reference_loop_s() -> float:
    """Median of five timings of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def make_workload(name: str, seed: int, seconds: float, workdir: str):
    import workloads
    if name == "offline_4ch":
        return workloads.Offline(seed)
    if name == "live_4ch":
        return workloads.Live(seed, workdir, seconds)
    return workloads.Roundtrip(seed, workdir)


def measure(workload, seconds: float, trace: bool, metric_units: dict[str, str],
            trace_path: Path | None = None) -> dict:
    """Set up, run and return the result object: correct, attempted, failed, metrics."""
    import tracing

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    tracer = tracing.Tracer() if trace else None
    outcome = workload.run(seconds, tracer)
    if trace:
        # a layer the workload never calls reads 0
        values = {name: outcome.layers.get(name, 0.0) for name in metric_units}
        if trace_path is not None:
            tracer.write(trace_path)
    else:
        values = {**outcome.e2e, "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    missing = set(metric_units) - set(values)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in metric_units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ismkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'ismkit'} and {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import ismkit
    if Path(ismkit.__file__).resolve().parent != SRC / "ismkit":
        print(f"error: imported ismkit from {ismkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metric_units = {m["name"]: m["unit"] for m in section}

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    trace_path = None
    if args.trace:
        (WORK / "traces").mkdir(exist_ok=True)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    try:
        ref_before = reference_loop_s()
        workload = make_workload(args.workload, args.seed, args.seconds, workdir)
        result = measure(workload, args.seconds, bool(args.trace), metric_units, trace_path)
        ref_after = reference_loop_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "cores": os.cpu_count(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "reference_loop_s_before": ref_before,
           "reference_loop_s_after": ref_after}
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
