#!/usr/bin/env python3
"""Count self-check for the end-to-end benchmark.

The count metrics later changes cite (wire_bytes_per_write,
engine.payload_bytes_per_write, engine.dirty_bytes_per_write) must be a
function of the seed alone.  For each workload this runs a fixed number of
ops per session twice with one seed and once with another, and checks that
the first two runs agree exactly and the third differs.

Run from the repository root:

    python3 e2e_bench/tests/count_selfcheck.py

Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
import run  # noqa: E402  (the benchmark's build step)

OPS = {"tpcc-durable": 400, "rand-write": 1500, "mixed-read": 1500}
COUNTS = {0: ["wire_bytes_per_write"],
          1: ["engine.payload_bytes_per_write", "engine.dirty_bytes_per_write"]}


def counts(binary, workload, seed):
    """Returns the count metrics of one fixed-size run of each kind."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRINS_")}
    out = {}
    for trace, names in COUNTS.items():
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace),
               "--ops", str(OPS[workload])]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=run.RUN_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: run failed "
                               f"(exit {proc.returncode})")
        for name in names:
            out[name] = result["metrics"][name]["value"]
    return out


def main():
    binary = run.build()
    ok = True
    for workload in OPS:
        first = counts(binary, workload, 7)
        again = counts(binary, workload, 7)
        other = counts(binary, workload, 8)
        for name in first:
            same = first[name] == again[name]
            differs = first[name] != other[name]
            ok &= same and differs
            print(f"{workload:13s} {name:32s} seed7 {first[name]!r:>22} "
                  f"again {'same' if same else 'DIFFERENT':9s} "
                  f"seed8 {other[name]!r:>22} "
                  f"{'ok' if same and differs else 'FAIL'}")
    print("count self-check:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
