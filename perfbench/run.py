#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run builds perfbench/ (and the engine sources under src/) into
.bench_build/ on first use, runs the workload in its own process, prints
every metric the workload emits with its unit (the layer ledger), and ends
with one JSON line holding the metrics BENCHMARK.json names for the mode:
the end-to-end metrics untraced (--trace 0), the per-layer metrics traced
(--trace 1). A wrong answer or a missing metric exits non-zero.

--self-check runs every workload briefly on a tiny corpus, traced and
untraced, and checks that every metric named in BENCHMARK.json (and every
workload-specific ledger line) is emitted with its unit and that no
operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tklus_perfbench")
RUN_TIMEOUT_S = 170

# Workloads the command runs that BENCHMARK.json does not list: ingest_read
# is too unsteady on a shared host to carry a regression bound (see
# perfbench/README.md), but its ledger is printed and self-checked.
UNLISTED_WORKLOADS = ["ingest_read"]

# Ledger lines that only some workloads have, so BENCHMARK.json (whose
# metrics every workload must report) cannot name them. They are printed
# with the rest and checked by --self-check.
WORKLOAD_METRICS = {
    "wire_mix": {
        0: ["loadgen.achieved_qps"],
        1: ["loadgen.lateness_ms.p99", "router.shards_touched",
            "router.shard_fetch_ms", "router.shard_merge_ms"],
    },
    "ingest_read": {
        0: ["append_p50_ms", "append_p99_ms"],
        1: ["router.shards_touched", "router.shard_fetch_ms",
            "router.shard_merge_ms", "wal.fsyncs_per_append",
            "wal.bytes_per_post", "delta.folds", "mapreduce.task_attempts",
            "loadgen.lateness_ms.p99"],
    },
}
# Every workload: both modes, untraced only, traced only.
COMMON_METRICS = ["error_rate"]
UNTRACED_COMMON_METRICS = ["query_p90_ms", "query_p99_ms"]
TRACED_COMMON_METRICS = ["storage.sid_fallback_rows", "phi.threads_pruned_per_query"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("engine sources (src/) not found next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise RuntimeError(f"{tool} not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release", "-G", "Unix Makefiles"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "tklus_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process and returns its JSON record."""
    work_dir = os.path.join(ROOT, ".bench_work", f"{os.getpid()}-{workload}-{trace}")
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(work_dir, "engines"), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver exited with {proc.returncode} for {workload}")
    return json.loads(lines[-1])


def print_ledger(record):
    context = record["context"]
    print(f"== {context.get('workload')} seed={context.get('seed')} "
          f"trace={context.get('trace')}")
    for key, value in context.items():
        print(f"context {key} = {value}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops attempted={record['attempted']} failed={record['failed']}")
    for failure in record.get("failures", []):
        print(f"failure: {failure}")


def expected_metrics(spec, workload, trace):
    """(name, unit or None) pairs the record must hold."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    names = [(m["name"], m["unit"]) for m in listed]
    extras = COMMON_METRICS + (TRACED_COMMON_METRICS if trace else UNTRACED_COMMON_METRICS)
    extras += WORKLOAD_METRICS.get(workload, {}).get(trace, [])
    return names + [(name, None) for name in extras]


def missing_metrics(record, expected):
    problems = []
    for name, unit in expected:
        metric = record["metrics"].get(name)
        if metric is None:
            problems.append(f"{name} missing")
        elif not metric.get("unit"):
            problems.append(f"{name} has no unit")
        elif unit is not None and metric["unit"] != unit:
            problems.append(f"{name} unit {metric['unit']} != {unit}")
    return problems


def run_one(args):
    spec = load_spec()
    build()
    record = run_driver(args.workload, args.seed, args.seconds, args.trace)
    print_ledger(record)
    problems = missing_metrics(record, expected_metrics(spec, args.workload, args.trace))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": bool(record["correct"]) and not problems,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: record["metrics"][m["name"]]
                    for m in listed if m["name"] in record["metrics"]},
    }
    for problem in problems:
        log(f"perfbench: {problem}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["attempted"] >= 1 else 1


def self_check():
    spec = load_spec()
    build()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        for trace in (0, 1):
            try:
                record = run_driver(workload, 1, 1.5, trace,
                                    extra=["--scale", "0.05", "--setup-reps", "1"])
            except RuntimeError as err:
                failures.append(str(err))
                continue
            print_ledger(record)
            problems = missing_metrics(record, expected_metrics(spec, workload, trace))
            if record["metrics"].get("error_rate", {}).get("value") != 0:
                problems.append("error_rate is not 0")
            if not record["correct"]:
                problems.append("wrong answers")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
    for failure in failures:
        log(f"self-check: {failure}")
    print(json.dumps({"self_check": "failed" if failures else "ok"}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        return run_one(args)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
