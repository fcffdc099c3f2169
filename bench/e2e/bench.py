#!/usr/bin/env python3
"""Build the end-to-end benchmark and run it.

Run from the repository root:

    python3 bench/e2e/bench.py --workload paper-n10 --seed 1 --seconds 15 --trace 0

It builds bench/e2e/run.exe with dune in the release profile (build
output goes to stderr), then replaces itself with run.exe, passing every
argument through.  A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

root = os.getcwd()
build = subprocess.run(
    ["dune", "build", "--root", root, "--profile", "release", "bench/e2e/run.exe"],
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "bench", "e2e", "run.exe")
os.execv(exe, [exe] + sys.argv[1:])
