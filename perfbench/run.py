#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

BENCHMARK.json names the workloads; perfbench/README.md describes them. The
perfbench program checks the workload name. The first call configures and builds the cid libraries
from src/ plus the perfbench program in .bench_build/perfbench (Release);
later calls only check that the build is current. The program's stdout is
passed through; its last line is the JSON result.

Exits non-zero without printing a result when the sources are missing, the
build fails, the program fails or the result line is malformed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def configured_here():
    """True when the build dir holds a configuration of this checkout."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            return "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in cache.read()
    except OSError:
        return False


def build():
    """Configure (once) and build; serialised by a lock beside the build dir."""
    os.makedirs(BUILD, exist_ok=True)
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not configured_here():
            # A build tree copied from another checkout compiles that
            # checkout's sources; start this one afresh.
            shutil.rmtree(BUILD)
            os.makedirs(BUILD)
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(build_jobs())])
        log_path = os.path.join(BUILD, "build.log")
        with open(log_path, "w") as log:
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=log, stderr=log,
                                          timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as error:
                    fail("build step %s failed: %s" % (step[:2], error))
                if code != 0:
                    log.flush()
                    with open(log_path) as text:
                        sys.stderr.write(text.read()[-4000:])
                    fail("build failed (see %s)" % log_path)


def tree_digest():
    """A digest of the measured sources: src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    return digest.hexdigest()[:16]


def git(*command):
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(command),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def source_id():
    """The commit when run from a git checkout, marked dirty with the tree
    digest when src/ or perfbench/ differ from it; else the tree digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", "src", "perfbench")
        if head is not None and status is not None:
            if status.strip():
                return "git:%s+dirty:%s" % (head.strip(), tree_digest())
            return "git:" + head.strip()
    return "tree:" + tree_digest()


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric %s malformed" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the cid sources (src/) are not next to perfbench/")

    build()
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    # The measured program must not be steered by the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CID_")}
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", traces, "--source-id", source_id()]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(stdout)
        fail("perfbench exited with code %d" % child.returncode)
    try:
        check_result(lines[-1])
    except ValueError as error:
        fail("malformed result line: %s" % error)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
