#!/usr/bin/env python3
"""Build and run the end-to-end PRINS benchmark.

Run from the repository root:

  python3 e2e_bench/run.py --workload rand-write --seed 1 --seconds 10 --trace 0

--workload all runs tpcc-durable, rand-write and mixed-read in turn with the
same arguments and exits non-zero if any of them failed.

The first run configures and builds e2e_bench/ (which compiles ../src) into
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; later runs
rebuild incrementally.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Traced runs (--trace 1) also write
their spans to <build dir>/traces/<workload>-seed<n>.csv.

PRINS_* variables are removed from the benchmark's environment: every
setting they could change is pinned in the benchmark itself.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tpcc-durable", "rand-write", "mixed-read"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2e")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "e2e_bench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"e2e_bench: build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failures = 0
    for workload in workloads:
        failures += run_one(binary, workload, args) != 0
    return 1 if failures else 0


def run_one(binary, workload, args):
    """Runs one workload; its report and JSON result go to stdout."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.csv")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRINS_")}
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2e_bench: run timed out", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
