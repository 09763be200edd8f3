#!/usr/bin/env python3
"""Build and run the POLIS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release
profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`), prints
a host fingerprint, then runs one workload. The last line of standard
output is the JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build chatter goes to stderr so the result stays the last stdout line.
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    print(
        f"host: cpu={cpu_model()!r} nproc={os.cpu_count()} rustc={rustc_version()!r} "
        f"profile=release",
        flush=True,
    )
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
