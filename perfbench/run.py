#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_paper --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/main.exe unchanged (see README.md).  This
wrapper adds the one metric main.exe cannot measure on itself,
``peak_rss_mb`` (main.exe's peak resident set, from wait4),
to the end-to-end result line.  It exits non-zero, printing no result,
when the checkout holds no buildable sources.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout with its sources", file=sys.stderr)
        return False
    # The build cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def main():
    if not build():
        return 1
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    traced = parser.parse_known_args()[0].trace == "1"
    child = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # Reap the child with wait4 so the rusage is its own: the
    # RUSAGE_CHILDREN total would also count the dune build.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        print(f"perfbench: main.exe exited {code} without a result", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    if not traced:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
