#!/usr/bin/env python3
"""Build and run the starlinkview benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest-batch --seed 1 --seconds 30 --trace 0

Builds perfbench/ (its own Go module, which uses the checkout's source tree
through a replace directive) into .bench_build/perfbench, keeping the Go
build cache, temporary files and module state there too, then runs the
binary with the given arguments. The binary's last stdout line is the
result. Exits non-zero, without printing a result, when the build or the
run fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [a.replace("--", "-", 1) if a.startswith("--") else a for a in sys.argv[1:]]
    proc = subprocess.Popen([binary, "-out", out] + args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
