#!/usr/bin/env python3
"""Build and run the swcc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary from source (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` in the checkout when that is unset,
then runs it with the same arguments. The binary prints a report and, as
the last line of standard output, one JSON result object. Exits with the
binary's code: 0 when every correctness check passed, non-zero otherwise
(including when the build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "swcc-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
