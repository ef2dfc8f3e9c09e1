#!/usr/bin/env python3
"""Job-level benchmark of PerpLE: build, run one workload, print the result.

Usage, from the repository root:

    python3 jobbench/run.py --workload sim-suite --seed 1 --seconds 10 --trace 0

The first run configures and builds the libraries and the jobbench binary
(Release) under .bench_build/jobbench; later runs rebuild only what
changed. Build output goes to stderr. The binary's stdout is passed
through: a preamble, then one JSON result line. Spans of a traced run
are written to .bench_build/spans/. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "jobbench")
WORKLOADS = ["sim-suite", "exact-suite", "serve-mixed", "corpus-replay",
             "native-suite"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the jobbench binary; returns its path."""
    def step(cmd):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("jobbench: build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "--target", "jobbench",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD_DIR, "jobbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="tiny iteration counts (smoke tests)")
    parser.add_argument("--inject",
                        choices=["perturb-count", "flip-capture-byte"],
                        help="deliberate fault (negative tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    # Relative paths keep the daemon's socket path short.
    run_dir = os.path.join(".bench_build", "run", str(os.getpid()))
    spans_dir = os.path.join(".bench_build", "spans")
    os.makedirs(os.path.join(ROOT, spans_dir), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--run-dir", run_dir, "--spans",
           os.path.join(spans_dir,
                        "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("jobbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
