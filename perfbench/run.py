#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload manype-frfs --seed 1 --seconds 15 --trace 0

The benchmark is the Go program in this directory (its own module,
which resolves the repository's packages through a replace directive
pointing at the parent directory). This script builds it from source
into .bench_build/ at the repository root, keeping the Go build cache
and temporary files there too, then runs it with the given arguments
from the repository root and exits with its exit code. The last line
of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
