#!/usr/bin/env python3
"""Builds geoalign and the `perfbench` binary from source, then runs one
workload of the serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crosswalk_paper --seed 1 --seconds 12 --trace 0

Builds with cargo into $CARGO_TARGET_DIR (default `.bench_build`), then
hands every argument to the `perfbench` binary, whose last line of
standard output is the result JSON. Exits non-zero, printing no result,
when either build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at " + ROOT + ": not a geoalign checkout", file=sys.stderr)
        return 1
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "geoalign-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--geoalign", os.path.join(release, "geoalign"),
    ]
    # The benchmark and the servers it starts share one process group, so
    # nothing outlives this script, even when it is interrupted.
    proc = subprocess.Popen(bench, cwd=ROOT, env=env, start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # The benchmark removes its own directory unless it was killed.
        shutil.rmtree(os.path.join(ROOT, ".bench_run", "run-%d" % proc.pid), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
