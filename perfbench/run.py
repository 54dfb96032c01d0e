#!/usr/bin/env python3
"""powerlim end-to-end benchmark.

Builds the benchmark (perfbench/CMakeLists.txt: the powerlim libraries
from src/ plus the benchmark binary from perfbench/cpp) under
.bench_build/perfbench at the repository root, then runs one workload:

    python3 perfbench/run.py --workload sweep-comd --seed 1 --seconds 30 --trace 0

The last line of stdout is the JSON result. Other modes:

    python3 perfbench/run.py --all            # every workload, untraced
    python3 perfbench/run.py --selftest       # the benchmark's own arithmetic
    python3 perfbench/run.py --write-reference  # refresh perfbench/reference.txt

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["sweep-comd", "sweep-lulesh", "serve-mixed"]
# One run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def run_workload(workload, seed, seconds, trace, trace_seed):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD, "work"),
           "--reference", REFERENCE,
           "--spans", os.path.join(BUILD, "spans-%s-seed%d.json" % (workload, seed))]
    if trace_seed is not None:
        cmd += ["--trace-seed", str(trace_seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s did not finish in %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="seed of the generated traces (default 17)")
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and print its metrics")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")])
    if args.write_reference:
        # Replaces the lines of one trace seed and keeps the others.
        seed = 17 if args.trace_seed is None else args.trace_seed
        fresh = subprocess.check_output(
            [os.path.join(BUILD, "perfbench"), "--write-reference",
             "--trace-seed", str(seed)], text=True)
        kept = []
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                kept = [l for l in f if not l.startswith("#")
                        and l.split()[1:2] != [str(seed)]]
        with open(REFERENCE, "w") as f:
            f.write("# workload trace-seed socket-W lp-bound-s static-bound-s"
                    " verdict\n")
            f.writelines(kept)
            f.write(fresh)
        return 0
    if args.all:
        worst = 0
        for w in WORKLOADS:
            print("== %s" % w)
            code, out = run_workload(w, args.seed, args.seconds, 0, args.trace_seed)
            lines = out.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            worst = max(worst, code)
        return worst
    if args.workload is None:
        ap.error("--workload is required")
    code, out = run_workload(args.workload, args.seed, args.seconds,
                             args.trace, args.trace_seed)
    lines = out.strip().splitlines()
    if not lines:
        return code or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        sys.stderr.write("perfbench: no result line\n")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
