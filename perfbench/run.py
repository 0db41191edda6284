#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper7_j4 --seed 2320569722 \
        --seconds 10 --trace 0

The benchmark is compiled from the checkout's sources into .bench_build/
(one CMake package, perfbench/CMakeLists.txt).  Before measuring, every
unit of the workload needs a reference digest: the committed ones in
perfbench/reference/digests.txt cover the default and the held-out seed;
for any other seed the independent slow paths compute them once into
.bench_build/perfbench-refs/, keyed by a hash of the sources.  The last line
of standard output is the result object; everything else goes to stderr.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
COMMITTED_REFS = os.path.join(HERE, "reference", "digests.txt")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_hash():
    """sha256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "perfbench"], stdout=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "world.h")):
        log("no ballista sources next to perfbench/; run from a full checkout")
        return 2
    if not build():
        log("build failed")
        return 2

    binary = os.path.join(BUILD, "perfbench")
    digest = source_hash()
    cache_dir = os.path.join(ROOT, ".bench_build", "perfbench-refs")
    os.makedirs(cache_dir, exist_ok=True)
    cache = os.path.join(cache_dir, digest + ".txt")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--ref", COMMITTED_REFS]

    # Reference digests for units no file holds yet: a separate process, so
    # the measured one's peak RSS and caches carry nothing of the slow paths.
    r = subprocess.run([binary] + common + ["--make-ref", cache],
                       stdout=sys.stderr)
    if r.returncode != 0:
        log("computing reference digests failed")
        return 2

    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    cmd = [binary] + common + [
        "--ref", cache, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", scratch,
        "--commit", git_commit(), "--source-hash", digest]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
