#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv_point --seed 1 --seconds 20 --trace 0

Builds the benchmark and the server binary with dune, then hands every
argument to the benchmark executable.  Build output goes to stderr, so the
benchmark's last line of standard output stays its JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of an mmdb checkout\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
         "./bin/mmdb_server.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    return subprocess.call([EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
