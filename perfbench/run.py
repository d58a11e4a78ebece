#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload suite-vm --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary. The Go build cache,
temporary files and the binary stay under .bench_build/ in the current
directory, and the module cache is never consulted (the benchmark has
no dependencies outside this repository), so nothing is read or written
outside the checkout and nothing is fetched. When the build fails the
script exits with the build's code and prints no result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go") or "/usr/local/go/bin/go"
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        # The go command's own configuration and telemetry live under
        # the user config directory; keep them inside the checkout.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
