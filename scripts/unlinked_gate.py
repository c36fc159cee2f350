#!/usr/bin/env python3
"""Unlinked-code gate: every compiled source file and function must reach a binary.

Two rules, both over the strong functions in namespace taureau that the
build's libtaureau_*.a archives define:

  object rule    an object none of whose functions is defined in any bench
                 (bench/bench_e*) or example (examples/*) executable is code
                 that no experiment or example runs.
  function rule  a function that is defined in no bench, example or test
                 (tests/*_test) executable, and that perfbench's
                 libperfbench_core.a does not reference, is code that nothing
                 runs.

The gate fails when either rule finds something. Both rules rely on the
linker dropping what nothing reaches, so the build must compile each
function into its own section without inlining and link with section
garbage collection:

    cmake -B build-link -S . -DCMAKE_BUILD_TYPE=None \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-link -j
    cmake -B build-link-perfbench -S perfbench -DCMAKE_BUILD_TYPE=None \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections"
    cmake --build build-link-perfbench -j --target perfbench_core
    python3 scripts/unlinked_gate.py --build build-link \\
      --perfbench build-link-perfbench

An optimized build would flag functions that every caller inlined, so the
gate refuses a build tree whose CMakeCache.txt lacks those flags. The
perfbench binary itself refuses to compile without optimization, which is
why its library's undefined references stand in for it.

Only compiled functions are checked. Code that lives in a header alone
(inline functions and templates) is emitted as weak symbols, so it is out of
this gate's reach.
"""

import argparse
import os
import re
import subprocess
from pathlib import Path

# A strong text symbol in namespace taureau (const methods mangle as _ZNK).
TAUREAU_FN = re.compile(r"^(_ZNK?7taureau\S*) T ")
# An undefined reference to one.
TAUREAU_REF = re.compile(r"^(_ZNK?7taureau\S*) U")
MEMBER = re.compile(r"\[(.+?)\]: ")
REQUIRED_FLAGS = {
    "CMAKE_CXX_FLAGS": ("-O0", "-ffunction-sections"),
    "CMAKE_EXE_LINKER_FLAGS": ("--gc-sections",),
}


def nm(path, *flags):
    return subprocess.run(["nm", *flags, "-P", "-A", str(path)], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.splitlines()


def archive_symbols(archive, pattern, *flags):
    """(object, symbol) for each symbol of `archive` that matches `pattern`."""
    for line in nm(archive, *flags):
        member = MEMBER.search(line)
        match = pattern.match(line[member.end():]) if member else None
        if match:
            yield member.group(1), match.group(1)


def check_flags(build, variables):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        raise SystemExit(f"unlinked gate: no CMakeCache.txt in {build}")
    values = dict(re.findall(r"^(\w+):\w+=(.*)$", cache.read_text(), re.M))
    missing = [f"{var} {flag}" for var in variables
               for flag in REQUIRED_FLAGS[var]
               if flag not in re.split(r"[\s,]+", values.get(var, ""))]
    if missing:
        raise SystemExit(f"unlinked gate: {build} was not configured with " +
                         ", ".join(missing) + " (see the module docstring)")


def executables(build, directory, pattern):
    return [p for p in sorted((build / directory).glob(pattern))
            if p.is_file() and os.access(p, os.X_OK)]


def demangle(names):
    return subprocess.run(["c++filt"], input="\n".join(names), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build-link", type=Path)
    parser.add_argument("--perfbench", default="build-link-perfbench",
                        type=Path)
    args = parser.parse_args()
    check_flags(args.build, ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS"))
    check_flags(args.perfbench, ("CMAKE_CXX_FLAGS",))
    perfbench_core = args.perfbench / "libperfbench_core.a"
    if not perfbench_core.is_file():
        raise SystemExit(f"unlinked gate: no {perfbench_core}")

    experiments = (executables(args.build, "bench", "bench_e*") +
                   executables(args.build, "examples", "*"))
    tests = executables(args.build, "tests", "*_test")
    if not experiments or not tests:
        raise SystemExit(f"unlinked gate: no bench, example or test binary "
                         f"in {args.build}")

    def defined(binaries):
        return {line.split(": ", 1)[1].split(" ", 1)[0]
                for binary in binaries
                for line in nm(binary, "--defined-only")}

    in_experiments = defined(experiments)
    kept = in_experiments | defined(tests) | {
        ref for _, ref in archive_symbols(perfbench_core, TAUREAU_REF, "-u")}

    unlinked_objects, unlinked_functions = [], set()
    for archive in sorted((args.build / "src").rglob("libtaureau_*.a")):
        functions = {}
        for obj, fn in archive_symbols(archive, TAUREAU_FN, "--defined-only"):
            functions.setdefault(obj, set()).add(fn)
        unlinked_objects += [f"{archive.name}({obj})"
                             for obj, names in sorted(functions.items())
                             if not names & in_experiments]
        unlinked_functions |= set().union(*functions.values()) - kept
    print(f"unlinked gate: {len(experiments)} bench and example binaries, "
          f"{len(tests)} test binaries and {perfbench_core.name} checked; "
          f"{len(unlinked_objects)} objects and {len(unlinked_functions)} "
          f"functions unlinked")
    failures = []
    if unlinked_objects:
        failures.append("objects that no bench or example links:\n  " +
                        "\n  ".join(unlinked_objects))
    if unlinked_functions:
        failures.append("functions that no bench, example, test or perfbench "
                        "keeps:\n  " + "\n  ".join(
                            sorted(demangle(sorted(unlinked_functions)))))
    if failures:
        raise SystemExit("unlinked gate: " + "\n".join(failures))


if __name__ == "__main__":
    main()
