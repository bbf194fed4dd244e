#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Arguments pass through to the command (see perfbench/README.md). Everything
the Go toolchain writes -- build cache, module cache, temporary files -- and
the temporary stores the workloads create stay under .bench_build/ at the
repository root. The last line of standard output is the result; build
messages go to standard error.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840  # a first build compiles the standard library too
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    return ran.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
