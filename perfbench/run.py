#!/usr/bin/env python3
"""Build and run one csobj benchmark run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (Release, NDEBUG, Fast registers, metrics on)
into .bench_build/perfbench; later calls only rebuild what changed. The
benchmark binary prints its build facts, one line per correctness check
and, as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the run are written to
.bench_build/traces/<workload>-seed<N>.jsonl. Build output goes to
standard error. The exit code is the binary's: 0 when every check
passed, 1 when one failed; 2 when the benchmark could not be built or
its arguments are wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "csobj_perfbench"
WORKLOADS = ("stack-solo", "bag-contended", "map-mixed", "service")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the binary gets what the build leaves.
RUN_DEADLINE_S = 170
BUILD_JOBS = "2"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def configure_and_build():
    if not (ROOT / "src" / "core").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    build = ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS]
    # The compiler's temporary files stay inside the checkout too.
    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    for attempt in range(2):
        ok = True
        if not (BUILD / "CMakeCache.txt").exists():
            ok = subprocess.run(configure, stdout=sys.stderr,
                                env=env).returncode == 0
        if ok:
            ok = subprocess.run(build, stdout=sys.stderr,
                                env=env).returncode == 0
        if ok and BINARY.exists():
            return
        # A cache left by another checkout path cannot be reused.
        if attempt == 0:
            shutil.rmtree(BUILD, ignore_errors=True)
    fail("build failed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small working sets, for the benchmark's test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def main(argv):
    try:
        args = parse_args(argv)
    except SystemExit as exit_:
        sys.exit(2 if exit_.code else 0)
    configure_and_build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(TRACES / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_DEADLINE_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_DEADLINE_S} s", code=1)
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        fail("benchmark printed no result object", code=1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
