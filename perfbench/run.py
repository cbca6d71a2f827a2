#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the qmpi
library, the qmpirun launcher and the perfbench driver) into .bench_build/,
then runs the driver. Build output goes to stderr; the driver's record
header and, as the last line, its JSON result go to stdout. Exits nonzero
without a result when the qmpi sources are missing, the build fails, a
check fails, or the run overruns its time limit.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("tfim_ring20", "tfim_ring12", "qmpid_tenants", "dist_tcp18")
RUN_LIMIT_S = 170


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench"], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the qmpi sources (CMakeLists.txt, src/) are not "
              "next to perfbench/", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--commit", source_id()]
    if args.trace == "1":
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.tsv")]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a hung run is stopped with everything it
    # started (qmpirun and its rank processes included).
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
