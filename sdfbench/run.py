#!/usr/bin/env python3
"""Build and run the SDF stack benchmark.

    python3 sdfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 sdfbench/run.py --selftest [seed ...]

Builds the benchmark (and the simulator sources in ../src) with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, then runs
it. The benchmark prints a report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --selftest runs the seam
decorator test instead. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb_b_zipf", "ycsb_a_restart", "ccdb_write_compaction")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "sdfbench")


def build(out):
    """Configure (once) and build; returns False on any failure."""
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def parse(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    if len(argv) % 2 != 0:
        return None
    for key, value in zip(argv[::2], argv[1::2]):
        if key not in opts:
            return None
        opts[key] = value
    if opts["--workload"] not in WORKLOADS or opts["--trace"] not in ("0", "1"):
        return None
    if not opts["--seed"].isdigit():
        return None
    try:
        seconds = float(opts["--seconds"])
    except ValueError:
        return None
    if not 0 < seconds <= 120:
        return None
    return opts


def main(argv):
    selftest = argv[:1] == ["--selftest"]
    opts = None if selftest else parse(argv)
    if not selftest and opts is None:
        print(__doc__, file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("sdfbench: build failed", file=sys.stderr)
        return 1
    if selftest:
        cmd = [os.path.join(out, "sdfbench_seam_test")] + argv[1:]
    else:
        cmd = [os.path.join(out, "sdfbench")]
        for key in ("--workload", "--seed", "--seconds", "--trace"):
            cmd += [key, opts[key]]
    try:
        proc = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        print("sdfbench: timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
