#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Usage, from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark's Go module into .bench_build/ at the checkout root,
with the Go build cache, module cache and home directory there too, so the
build reads and writes nothing else. Then runs the benchmark from the
checkout root with the same arguments and passes its exit code through.
When the build fails it exits non-zero without printing a result line.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)

    env = dict(os.environ)
    env.update(
        {
            "HOME": home,
            "XDG_CONFIG_HOME": os.path.join(home, ".config"),
            "XDG_CACHE_HOME": os.path.join(home, ".cache"),
            "GOCACHE": os.path.join(build, "gocache"),
            "GOPATH": os.path.join(build, "gopath"),
            "GOENV": "off",
            "GOFLAGS": "-buildvcs=false",
            "GOPROXY": "off",
            "GOTOOLCHAIN": "local",
            "CGO_ENABLED": "0",
        }
    )
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: standard output carries only the result.
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode if built.returncode > 0 else 1

    child = subprocess.Popen(
        [binary, *sys.argv[1:], "-scratch", os.path.join(build, "run")], cwd=root
    )

    def stop(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    code = main()
    sys.exit(code if code >= 0 else 128 - code)
