#!/usr/bin/env python3
"""Build perfbench from this checkout and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, the binary and the run's scratch files (mediator logs,
trace spans) all live under the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the checkout root. Nothing is read or written
outside the checkout apart from the Go toolchain itself. The last line of
standard output is the benchmark's JSON result; a failed build or run exits
nonzero without one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170  # seconds; a run that hangs is killed and fails


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run(
            [binary, *sys.argv[1:], "--workdir", os.path.join(build, "run")],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
