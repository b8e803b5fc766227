#!/usr/bin/env python3
"""Run one workload of the ecnd benchmark and print its metrics.

    python3 ecndbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out results.jsonl]

Builds ecndbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the ecnd_bench binary, and prints a
table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --out appends the result, stamped with the build flavour,
nproc and git SHA, as one JSON line that compare.py reads. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Host times are reported at a reference machine speed: the speed at which
# the binary's speed probe takes PROBE_REFERENCE_S of CPU. The probe runs
# after every rep and does not use the program under test, so the scaling
# removes the drift of a shared VM without hiding any change to the program.
PROBE_REFERENCE_S = 0.035
HOST_TIMES = {"setup_s", "run_wall_s", "run_cpu_s", "sim.cpu_ns_per_event",
              "sim.self_cpu_s", "fluid.ns_per_flow_rhs", "fluid.large_n_cell_s",
              "fluid.small_n_cell_s", "core.par.slowest_task_s"}
HOST_RATES = {"work_per_cpu_s"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "ecnd_bench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "ecnd_bench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    reps = raw["reps"]
    return {
        "setup_s": median(raw["setup_s"]),
        "run_wall_s": median([r["run_wall_s"] for r in reps]),
        "run_cpu_s": median([r["run_cpu_s"] for r in reps]),
        "work_per_cpu_s": median([r["work"] / r["run_cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(raw, names):
    # A layer this workload does not exercise reads 0.
    return {name: median([r["layers"].get(name, 0.0) for r in raw["reps"]])
            for name in names}


def at_reference_speed(values, speed):
    return {name: value * speed if name in HOST_TIMES
            else value / speed if name in HOST_RATES else value
            for name, value in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    binary = build(build_dir.resolve())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ecnd_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"ecnd_bench exited with {proc.returncode}")
    raw = json.loads(proc.stdout)
    raw_dir = build_dir / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    (raw_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        proc.stdout)

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    reps = raw["reps"]
    speed = PROBE_REFERENCE_S / median([r["probe_s"] for r in reps])
    values = per_layer(raw, units) if args.trace else end_to_end(raw)
    values = dict(at_reference_speed(values, speed), **{"obs.host_speed": speed})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    attempted = sum(r["attempted"] for r in reps) * (2 if args.trace else 1)
    failed = sum(r["failed"] + r.get("traced_failed", 0) for r in reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} elapsed={time.monotonic() - started:.1f}s "
          f"host_speed={speed:.3f} stamp={raw['stamp']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace,
                      stamp=dict(raw["stamp"], git_sha=git_sha()))
        with args.out.open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
