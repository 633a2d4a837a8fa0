#!/usr/bin/env python3
"""Builds and runs the Snapper transaction benchmark (txnbench).

Usage, from the root of a checkout:

    python3 txnbench/run.py --workload smallbank-pact --seed 1 \
        --seconds 10 --trace 0
    python3 txnbench/run.py --self-test

The benchmark is compiled from the checkout's sources as an optimised
(Release) build under $CARGO_TARGET_DIR (default .bench_build), then run
once. Its standard output is passed through; the last line is the result
object. Every run is also appended, with the source revision, build type
and core count, to .bench_out/runs.jsonl. Traced runs write their spans to
.bench_out/<workload>.trace.csv.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"txnbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "txnbench")


def cached_build_type(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    build = build_dir()
    if cached_build_type(build) != "Release":
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build, "CMakeCache.txt")):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "--target", "txnbench", "-j",
                    jobs], check=True, stdout=sys.stderr)
    return os.path.join(build, "txnbench")


def source_revision():
    """The git commit when the checkout is a repository, and always a
    digest of the sources the benchmark builds."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 check=True, capture_output=True,
                                 text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for top in ("src", "txnbench"):
        walk = os.walk(os.path.join(ROOT, top))
        for dirpath, dirnames, filenames in sorted(walk):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check can fail")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "snapper",
                                       "snapper_runtime.h")):
        log(f"no Snapper sources under {ROOT}/src; nothing to build")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        cmd = [binary, "--self-test", "--seed", str(args.seed)]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or args.self_test:
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    sha, digest = source_revision()
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": sha,
        "source_digest": digest,
        "build_type": cached_build_type(build_dir()),
        "nproc": os.cpu_count(),
        "args": vars(args),
        "info": json.loads(lines[-2])["info"] if len(lines) > 1 else None,
        "result": json.loads(lines[-1]),
    }
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
