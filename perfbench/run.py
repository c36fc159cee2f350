#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a checkout.

    python3 perfbench/run.py --workload overload --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the simulator from ../src)
into .bench_build/perfbench, then runs the benchmark binary with the same
arguments. The build's own output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero without a result when the
simulator sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build(target):
    """Configures once, then builds `target` incrementally. Returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / target


def main(argv):
    try:
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        args += ["--trace-dir", str(trace_dir)]
    sys.stdout.flush()
    os.execv(str(binary), [str(binary)] + args)


if __name__ == "__main__":
    main(sys.argv[1:])
