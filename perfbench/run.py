#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn_tight --seed 1 --seconds 10 --trace 0

Every build output (binary, Go build cache, Go's own config and telemetry
files) goes under .bench_build/ in the checkout. The arguments are passed to
the driver unchanged; its last line of output is the JSON result. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomod"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
