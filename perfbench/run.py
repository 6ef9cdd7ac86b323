#!/usr/bin/env python3
"""Build the benchmark and the mced daemon from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hubs --seed 1 --seconds 24 --trace 0

Every build product, Go cache and scratch file stays under .bench_build/ in
the current directory. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. A failed build exits 1
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    bindir = os.path.join(out, "bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in (bindir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    builds = [
        (root, ["go", "build", "-o", os.path.join(bindir, "mced"), "./cmd/mced"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(bindir, "perfbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
