#!/usr/bin/env python3
"""Build and run the DIC benchmark.

    python3 dicbench/run.py --workload cold_chip|tcp_read|tcp_edit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library, the TCP server example and the benchmark program into
.bench_build/dicbench (later calls are an up-to-date check). Its last
stdout line is one JSON object {correct, attempted, failed, metrics};
the exit code is non-zero when any output disagrees with its oracle or
the build fails.
Build logs go to stderr so stdout stays the report.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dicbench")


def git_sha():
    # Only ask git when this tree is itself a checkout: never search
    # parent directories for a repository that is not ours.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("dicbench: no src/ next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not build():
        print("dicbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD, "dicbench")
    args = [exe] + sys.argv[1:] + ["--git-sha", git_sha(),
                                   "--out-dir", BUILD]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
