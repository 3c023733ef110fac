#!/usr/bin/env python3
"""Builds and runs perfbench, the repository's benchmark.

    python3 perfbench/run.py --workload sweep|serve|cluster-chaos|accuracy|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny] [--expected FILE]

The first run in a checkout configures and builds the library sources under
src/ together with the benchmark program into .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only rebuild what changed. The
program's output is passed through unchanged: its last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A traced run
(--trace 1) also writes its spans to the build directory.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/CMakeLists.txt) not found "
                 "next to the benchmark")
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"perfbench: build failed (log: {log})")
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--expected", default=str(BENCH_DIR / "expected.txt"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--expected", args.expected]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(out / f"perfbench-spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
