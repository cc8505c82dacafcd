#!/usr/bin/env python3
"""Build and run the DTSVLIW simulator benchmark.

    python3 perfbench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
                             [--out FILE] [--spans FILE]
    python3 perfbench/run.py --seed N [...]   # every workload, in turn

Builds perfbench/main.exe from source with dune, with dune's shared cache
off so that nothing is written outside the repository, then runs it from
the repository root: once for the named workload, or once per workload of
BENCHMARK.json, each in its own process, when no --workload is given. The
arguments are passed through unchanged; see perfbench/README.md for what
they mean. Exits with the first non-zero exit code: 1 when the build fails,
an output is wrong or a run cannot be set up, 2 on bad arguments.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--workload" in argv:
        runs = [argv]
    else:
        runs = [["--workload", w] + argv for w in workloads()]
    for args in runs:
        code = subprocess.run([EXE] + args, cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
