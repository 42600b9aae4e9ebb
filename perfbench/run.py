#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The runner (perfbench/main.exe) is
built with dune into _build/, with dune's shared cache disabled so that
nothing is written outside the tree, and pinned to one OCaml domain.
Its standard output, whose last line is the result object, is passed
through unchanged; the exit code is the runner's, or non-zero if the
sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact", "operational")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise ValueError("unknown argument " + flag)
        opts[flag] = next(it)
    if opts.get("--workload") not in WORKLOADS:
        raise ValueError("--workload must be one of " + ", ".join(WORKLOADS))
    int(opts.setdefault("--seed", "0"))
    float(opts.setdefault("--seconds", "10"))
    if opts.setdefault("--trace", "0") not in ("0", "1"):
        raise ValueError("--trace must be 0 or 1")
    return opts


def main(argv):
    try:
        opts = parse(argv)
    except (ValueError, StopIteration) as e:
        print("perfbench: %s" % (e or "missing value"), file=sys.stderr)
        return 2
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: %s is missing; run from a full checkout" % needed,
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled", BROADCAST_PAR_DOMAINS="1")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    args = [exe]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        args += [flag, opts[flag]]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
