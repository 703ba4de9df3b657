#!/usr/bin/env python3
"""Builds BioCheck from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload smc_sweep|hit_mix|delta_session \
        --seed N --seconds S --trace 0|1 [--delay-ms X] [--tamper]

Builds `biocheckd` (root workspace) and the benchmark binary (the
`perfbench` package) in release mode under $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload. The binary's standard output is
passed through: metric lines, a `stamp {...}` line, and last the JSON
result. Exits non-zero, printing no result, when the build or the run
fails. See perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Both build steps together, so a first run in a fresh checkout ends
# within 900 s.
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "biocheck_serve", "--bin", "biocheckd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def source_hash():
    """Hash of every source file the benchmark builds from."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            if f.endswith(".pyc"):
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root: nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build(target)
    git = command_output(["git", "rev-parse", "HEAD"]) or "none"
    toolchain = command_output(["rustc", "-V"]) or "unknown"
    rev = f"git:{git[:12]} src:{source_hash()}"
    binary = os.path.join(target, "release", "biocheck_perfbench")
    daemon = os.path.join(target, "release", "biocheckd")
    cmd = [binary, *args, "--daemon", daemon, "--rev", rev,
           "--toolchain", toolchain]
    # A session of its own, so a timed-out run's daemon dies with it.
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
