#!/usr/bin/env python3
"""Determinism gate: the SHA-256 of every deterministic bench and example output.

Runs each bench at small shape (TAUREAU_BENCH_SMALL=1) with its
microbenchmarks filtered out; E27 takes its own --smoke switch instead. Runs
each example. Then compares the SHA-256 of every BENCH_E<k>.json and of every
example's stdout with the list checked in next to this script, and prints the
differing lines on a mismatch. All randomness is seeded, so a change that
keeps simulated behaviour keeps every digest.

    cmake -B build -S . && cmake --build build -j
    python3 scripts/digest_gate.py --build build

The outputs stay in <build>/digests/, so a mismatch can be diffed against
the same directory from another checkout. --update rewrites the list; a
change that means to alter simulated behaviour does that and says why.
"""

import argparse
import difflib
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.sha256"

# E24 and E26 write host timings (events/s, wall seconds, speedups) into
# their JSON, so their bytes change from run to run.
UNGATED = {24, 26}
# Benches whose own main() shrinks the shape and skips the microbenchmarks.
SMOKE = {27}


def benches():
    found = []
    for src in (ROOT / "bench").glob("bench_e*.cc"):
        k = int(re.match(r"bench_e(\d+)_", src.name).group(1))
        if k not in UNGATED:
            found.append((k, src.stem))
    return sorted(found)


def examples():
    return sorted(src.stem for src in (ROOT / "examples").glob("*.cpp"))


def run(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"digest gate: {cmd[0]} exited {proc.returncode}")
    return proc.stdout


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def collect(build):
    out = build / "digests"
    for sub in ("bench", "examples"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TAUREAU_BENCH_SMALL="1",
               TAUREAU_BENCH_JSON_DIR=str(out / "bench"))
    lines = []
    for k, name in benches():
        json_path = out / "bench" / f"BENCH_E{k}.json"
        json_path.unlink(missing_ok=True)
        flag = "--smoke" if k in SMOKE else "--benchmark_filter=^$"
        start = time.monotonic()
        run([str(build / "bench" / name), flag], out / "bench", env)
        print(f"  {name}: {time.monotonic() - start:.1f} s", flush=True)
        lines.append(f"{sha256(json_path.read_bytes())}  bench/{json_path.name}")
    for name in examples():
        stdout = run([str(build / "examples" / name)], out / "examples", env)
        (out / "examples" / f"{name}.stdout").write_bytes(stdout)
        lines.append(f"{sha256(stdout)}  examples/{name}.stdout")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build",
                        help="CMake build tree holding bench/ and examples/")
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of checking it")
    args = parser.parse_args()

    actual = collect(Path(args.build).resolve())
    if args.update:
        DIGESTS.write_text("\n".join(actual) + "\n")
        print(f"wrote {len(actual)} digests to {DIGESTS}")
        return 0
    expected = DIGESTS.read_text().splitlines()
    if actual == expected:
        print(f"digest gate: all {len(actual)} outputs match {DIGESTS.name}")
        return 0
    for line in difflib.unified_diff(
            expected, actual, fromfile=f"{DIGESTS.name} (checked in)",
            tofile="this build", lineterm=""):
        print(line)
    print(f"\ndigest gate: outputs differ; they are in "
          f"{Path(args.build) / 'digests'}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
