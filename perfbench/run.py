#!/usr/bin/env python3
"""Build and run sfqpart's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/build (the sfqpart library
from ../src plus the program in perfbench/src); later calls rebuild only
what changed. Build output goes to stderr. The program's stdout is passed
through: one line per metric, a fingerprint line, and as the last line
the JSON result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("table1", "vcycle_1m", "daemon_mix")
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("sfqpart sources not found at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    # Compiler temporaries go under the build tree, not the system TMPDIR.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD, "-j", BUILD_JOBS,
               "--target", "perfbench"]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench/src"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, extra=(), capture=False):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--source-id", source_id()] + list(extra)
    if capture:
        return subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT)
    return subprocess.run(command, cwd=ROOT)


def run_all(args):
    """Every workload in turn, each in its own process (peak RSS is per
    process); the last line is {"correct", "workloads": {...}}."""
    results = {}
    correct = True
    for workload in WORKLOADS:
        proc = run_workload(workload, args.seed, args.seconds, args.trace,
                            capture=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        results[workload] = result
        correct = correct and proc.returncode == 0 and result.get("correct") is True
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace-event JSON path")
    parser.add_argument("--self-test", action="store_true",
                        help="run perfbench/selftest.py on tiny inputs")
    args = parser.parse_args()

    build()
    if args.self_test:
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                              cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    extra = ["--trace-out", args.trace_out] if args.trace_out else []
    return run_workload(args.workload, args.seed, args.seconds, args.trace,
                        extra).returncode


if __name__ == "__main__":
    sys.exit(main())
