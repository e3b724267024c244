#!/usr/bin/env python3
"""Build the whole-stack benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload kv-sessions --seed 1 --seconds 10 --trace 0

The build goes to .bench_build (release profile); all arguments are
passed to perfbench/main.exe. See perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(dune-project and lib/ not found)\n")
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if build.returncode != 0:
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
