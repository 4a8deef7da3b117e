#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see perfbench/METRICS.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <ft16_batch|ft8_churn|fig7_cells> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest         # parity + quantile tests
  python3 perfbench/run.py --record-digests   # re-record the reference
                                              # ledger digests

The first call configures and builds the benchmark (Release) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit status is the benchmark's: 0 when every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
DIGESTS = os.path.join(HERE, "ledger_digests.json")
WORKLOADS = ("ft16_batch", "ft8_churn", "fig7_cells")


def run_child(cmd, stdout=None):
    """Runs `cmd` to completion; kills and reaps it if we are interrupted."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(target):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_child(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if code != 0:
            return False
    code = run_child(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs], stdout=sys.stderr)
    return code == 0


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def record_digests(binary):
    digests = {}
    for w in WORKLOADS:
        out = subprocess.run([binary, "--workload", w,
                              "--print-reference-digest"],
                             stdout=subprocess.PIPE, text=True, check=True)
        digests[w] = out.stdout.split()[-1]
        print(f"{w}: reference ledger digest {digests[w]}")
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return run_child([os.path.join(BUILD_DIR, "perfbench_test")])

    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    if args.record_digests:
        return record_digests(binary)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-digest", load_digests()[args.workload]]
    if args.trace:
        cmd += ["--spans-dir", SPANS_DIR]
    sys.stdout.flush()
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())
