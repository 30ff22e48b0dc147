#!/usr/bin/env python3
"""Build and run the mcr end-to-end benchmark for one workload.

    python3 e2e_bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
e2e_bench (the library, mcr_serve, mcr_router and the mcr_e2e harness) in
Release mode under .bench_build/e2e; later calls only rebuild what
changed. Build output goes to stderr, so the last line on stdout is the
harness's JSON result. Sockets, daemon logs, results_<workload>.json and
trace_<workload>.json land in .bench_build/e2e_run.

Exits 2 without printing a result when the repository sources are not
next to this directory.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "e2e")
WORKDIR = os.path.join(REPO, ".bench_build", "e2e_run")
WORKLOADS = ["serve_warm", "serve_cold", "fleet_load_solve", "library_kernel"]
# A run measures --seconds twice at most plus set-up; anything slower is hung.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "mcr_e2e", "-j", "2"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    sources = [os.path.join(REPO, "CMakeLists.txt"), os.path.join(REPO, "src", "CMakeLists.txt"),
               os.path.join(REPO, "tools", "mcr_serve.cpp")]
    missing = [p for p in sources if not os.path.isfile(p)]
    if missing:
        print(f"run.py: repository sources not found ({missing[0]}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    try:
        build()
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    tools = os.path.join(BUILD, "mcr", "tools")
    cmd = [os.path.join(BUILD, "mcr_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(tools, "mcr_serve"),
           "--router-bin", os.path.join(tools, "mcr_router"),
           "--benchmark-json", os.path.join(REPO, "BENCHMARK.json"),
           "--out-dir", WORKDIR]
    # The harness and the daemons it starts share one process group, so a
    # hung or crashed run never leaves a daemon behind.
    proc = subprocess.Popen(cmd, cwd=WORKDIR, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Daemons orphaned by a crashed harness are reaped by init; wait
        # until the group is empty.
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return code


if __name__ == "__main__":
    sys.exit(main())
