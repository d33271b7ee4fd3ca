#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-golden

Run from the repository root. The first call configures and builds the
analyzer and the benchmark program (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
The traced run (--trace 1) also writes its spans to trace-<workload>.jsonl
in the build directory. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Analyzer.h")):
        sys.exit("perfbench: analyzer sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the analyzer's sources: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    golden = os.path.join(HERE, "golden")
    out_dir = build_dir()
    binary = build(out_dir)
    if args.self_test:
        cmd = [binary, "--self-test", "--golden-dir", golden]
    elif args.record_golden:
        cmd = [binary, "--record-golden", "--golden-dir", golden]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--golden-dir", golden,
               "--git-commit", git_commit(), "--source-digest", source_digest()]
        if args.trace == "1":
            cmd += ["--trace-out",
                    os.path.join(out_dir, "trace-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    try:
        return run_group(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
