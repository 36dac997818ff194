#!/usr/bin/env python3
"""Fast self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json tiny (one second),
untraced and traced, through the same command the benchmark is run with,
and checks that the last line each run prints is a complete record:
exactly correct/attempted/failed/metrics, every metric of that kind of run
present, finite and in its unit. A traced run whose span model does not
reconcile with its untraced figures exits nonzero, so the traced runs
check that too. Then copies BENCHMARK.json and the
benchmark's own directories into an empty scratch directory and checks
that a run there fails fast, nonzero and without a record.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the checker perfbench/run.py applies itself)


def last_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return lines[-1] if lines else ""


def main():
    spec = run.load_spec()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=900)
            label = f"{workload} trace={trace}"
            try:
                if proc.returncode != 0:
                    raise run.BenchError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                record = json.loads(last_line(proc.stdout))
                if set(record) != {"correct", "attempted", "failed", "metrics"}:
                    raise run.BenchError(f"record keys are {sorted(record)}")
                run.check_record(record, spec, trace == 1)
                print(f"ok   {label}: {len(record['metrics'])} metrics")
            except (ValueError, run.BenchError) as e:
                failures.append(label)
                print(f"FAIL {label}: {e}")

    # Without the library sources the benchmark must refuse, fast.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare directory")
            print("FAIL bare directory: expected a nonzero exit and no record")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, {proc.stderr.strip()}")

    if failures:
        print(f"{len(failures)} self-test failure(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
