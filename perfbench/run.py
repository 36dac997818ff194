#!/usr/bin/env python3
"""Build and run one perfbench workload, then print its checked result.

    python3 perfbench/run.py --workload sign_batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (library sources included) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs rebuild only what changed. The
sampler cache (CGS_CACHE_DIR) and the host compiler's temporary files
(TMPDIR) live there too, so a run reads and writes only inside the
checkout -- except the compiled sampler kernels, which the library itself
writes to /tmp/cgs_kernel_* and removes again.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. Every metric BENCHMARK.json names
for this kind of run (end_to_end untraced, per_layer traced) must be
present, finite and in its declared unit, and every output must have been
correct; otherwise the run prints a message to standard error, no record,
and exits nonzero.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(out_dir, "perfbench")


def check_record(record, spec, trace):
    """Raises BenchError unless `record` is a complete, finite result."""
    if not isinstance(record, dict):
        raise BenchError("result is not a JSON object")
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in record:
            raise BenchError(f"result lacks '{key}'")
    if record["correct"] is not True:
        errors = "; ".join(record.get("errors", [])) or "unspecified"
        raise BenchError(f"outputs were not correct: {errors}")
    for key in ("attempted", "failed"):
        if not isinstance(record[key], int) or isinstance(record[key], bool) or record[key] < 0:
            raise BenchError(f"'{key}' is not a whole number")
    if record["attempted"] < 1:
        raise BenchError("nothing was attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = record["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        missing = sorted(names - set(metrics))
        extra = sorted(set(metrics) - names)
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for m in wanted:
        got = metrics[m["name"]]
        value = got.get("value") if isinstance(got, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not a finite number: {value!r}")
        if got.get("unit") != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {got.get('unit')!r}, expected {m['unit']!r}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wire-rate", type=float, required=True,
                   help="wire_mixed's fixed arrival rate, requests/s")
    args = p.parse_args()

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec.get("workloads", [])}:
            raise BenchError(f"unknown workload {args.workload!r}")
        out_dir = build_dir()
        binary = build(out_dir)
        work = os.path.join(out_dir, "work")
        tmp = os.path.join(out_dir, "tmp")
        os.makedirs(work, exist_ok=True)
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ,
                   CGS_CACHE_DIR=os.path.join(out_dir, "cgs-cache"),
                   TMPDIR=tmp)
        cmd = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--wire-rate", repr(args.wire_rate),
               "--work-dir", work]
        # A process group of its own, so a timeout also stops the host
        # compiler the library may have started.
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = [l for l in stdout.splitlines() if l.strip()]
        if not lines:
            raise BenchError(f"perfbench printed no result (exit {proc.returncode})")
        try:
            record = json.loads(lines[-1])
        except ValueError as e:
            raise BenchError(f"result is not JSON: {e}")
        check_record(record, spec, args.trace == 1)
        if proc.returncode != 0:
            raise BenchError(f"perfbench exited {proc.returncode}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        prefix = os.path.join(work, "spans-" + args.workload)
        print(f"spans: {prefix}.jsonl, per-layer totals: {prefix}-layers.json")
    print(json.dumps({"detail": record.get("detail", {})}, sort_keys=True))
    out = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
