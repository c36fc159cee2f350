#!/usr/bin/env python3
"""Unlinked-object gate: every compiled source file must reach a binary.

Lists the objects inside the build's libtaureau_*.a archives that define
strong functions in namespace taureau, none of which is defined in any bench
(bench/bench_e*) or example (examples/*) executable. The linker pulls an
archive member into a binary only when something there calls it, so such an
object is code that no experiment or example runs. The gate fails when it
finds one.

Only compiled objects are checked. Code that lives in a header alone
(inline functions and templates, like a header-only sketch) has no object of
its own, so it is out of this gate's reach.

    cmake -B build -S . && cmake --build build -j
    python3 scripts/unlinked_gate.py --build build
"""

import argparse
import os
import re
import subprocess
from pathlib import Path

# A strong text symbol in namespace taureau (const methods mangle as _ZNK).
TAUREAU_FN = re.compile(r"^(_ZNK?7taureau\S*) T ")
MEMBER = re.compile(r"\[(.+?)\]: ")


def nm(path):
    return subprocess.run(["nm", "--defined-only", "-P", "-A", str(path)],
                          check=True, stdout=subprocess.PIPE,
                          text=True).stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build", type=Path)
    build = parser.parse_args().build
    binaries = [p for d, pattern in (("bench", "bench_e*"), ("examples", "*"))
                for p in sorted((build / d).glob(pattern))
                if p.is_file() and os.access(p, os.X_OK)]
    if not binaries:
        raise SystemExit(f"unlinked gate: no bench or example in {build}")
    linked = {line.split(": ", 1)[1].split(" ", 1)[0]
              for binary in binaries for line in nm(binary)}
    unlinked = []
    for archive in sorted(build.rglob("libtaureau_*.a")):
        functions = {}
        for line in nm(archive):
            member = MEMBER.search(line)
            fn = TAUREAU_FN.match(line[member.end():]) if member else None
            if fn:
                functions.setdefault(member.group(1), set()).add(fn.group(1))
        unlinked += [f"{archive.name}({obj})"
                     for obj, names in sorted(functions.items())
                     if not names & linked]
    print(f"unlinked gate: {len(binaries)} binaries checked")
    if unlinked:
        raise SystemExit("unlinked gate: no bench or example links:\n  " +
                         "\n  ".join(unlinked))


if __name__ == "__main__":
    main()
