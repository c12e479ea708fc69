#!/usr/bin/env python3
"""Build and run the tunespace benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (and through it the tunespace library) into
.bench_build/perfbench, then replaces itself with the perfbench binary, which
takes the same arguments.  Build output goes to stderr, so the last line of
stdout is the binary's JSON result.  A failed build exits with status 2 and
prints no result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build" / "perfbench"
    work_dir = root / ".bench_build" / "perfbench-work"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    # Configuring again is a no-op once the build tree is up to date, and
    # recovers a tree whose first configure failed.
    steps = [
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    work_dir.mkdir(parents=True, exist_ok=True)
    binary = str(build_dir / "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--work-dir", str(work_dir)])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
