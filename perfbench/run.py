#!/usr/bin/env python3
"""Build vmgrid's benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper|resilience|daemon \
        --seed N --seconds S --trace 0|1

The script builds cmd/vmgridd and the pbench program (perfbench/*.go)
into .bench_build/ with every Go cache kept inside the checkout, then
replaces itself with pbench, which prints human-readable lines and, as
its last line, one JSON result. A failed build exits non-zero without a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    for name, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off", CGO_ENABLED="0")
    return env


def build():
    env = go_env()
    os.makedirs(BIN, exist_ok=True)
    for cwd, out, pkg in [
        (ROOT, os.path.join(BIN, "vmgridd"), "./cmd/vmgridd"),
        (os.path.join(ROOT, "perfbench"), os.path.join(BIN, "pbench"), "."),
    ]:
        done = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: building %s failed" % pkg)


def main():
    build()
    pbench = os.path.join(BIN, "pbench")
    os.execv(pbench, [pbench, "-root", ROOT] + sys.argv[1:])


if __name__ == "__main__":
    main()
