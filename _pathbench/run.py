#!/usr/bin/env python3
"""Build and run the paper-path benchmark.

Run from the root of the repository:

    python3 _pathbench/run.py --workload xfm_swap_batch --seed 1 --seconds 10 --trace 0

The Go program in this directory is its own module; it imports the
repository's packages through a `replace xfm => ../` directive, so it
builds only inside a full checkout. The build and every Go cache live
under $CARGO_TARGET_DIR (default `.bench_build`) in the current
directory. All arguments are passed through to the program, whose last
line of output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The program bounds its own run time; this only stops a hung child.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700


def go_env(build):
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOOS", "GOARCH", "GOPROXY", "GOPATH", "GOMODCACHE"):
        env.pop(key, None)
    tmp = os.path.join(build, "tmp")
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    os.makedirs(tmp, exist_ok=True)
    return env


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    os.makedirs(build, exist_ok=True)
    env = go_env(build)
    binary = os.path.join(build, "pathbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed; the benchmark needs the full repository", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
