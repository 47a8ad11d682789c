#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the simulator and the harness
(CMake, Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  Every run then:

  * with --trace 0, times the workload for --seconds and prints the
    end-to-end metrics;
  * with --trace 1, prints the per-layer ledger instead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the run's context (cores, workers, build,
compiler, commit, host measurements).  Build output and diagnostics go
to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("year-scalar", "sweep-batched", "serve-coalesce", "sweep-warm")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configure once, then (re)build the harness; output to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    step = ["cmake", "--build", out_dir, "--target", "perfbench_harness",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "perfbench_harness")


def source_digest():
    """The commit when run from a git checkout, else a digest of src/."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def harness(binary, workdir, args, timeout):
    """Run the harness in workdir; return its JSON report."""
    try:
        proc = subprocess.run([binary] + args, cwd=workdir,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or not 1 <= opts.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    out_dir = build_dir()
    binary = build(out_dir)
    workdir = os.path.join(out_dir, f"run-{opts.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        report = harness(binary, workdir, [
            "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--references", os.path.join(HERE, "references")],
            3 * opts.seconds + 60)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = dict(report["context"], commit=source_digest())
    print(json.dumps({"context": context}))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
