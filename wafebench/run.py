#!/usr/bin/env python3
"""Builds waferd and the wafebench generator from this checkout, then runs
one workload:

    python3 wafebench/run.py --workload stream|interact|churn --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. Cargo output goes to standard error; the
last line of standard output is the run's JSON result. The build goes to
$CARGO_TARGET_DIR, or to .bench_build when that is unset.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "wafe-serve", "Cargo.toml")):
        print("wafebench: no waferd sources next to wafebench/", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "waferd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("wafebench", "Cargo.toml")],
    ]
    for cmd in builds:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("wafebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "wafebench"),
           "--waferd", os.path.join(release, "waferd")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
