#!/usr/bin/env python3
"""Link-time reachability report: which library functions no binary keeps.

Builds the repository (tests, benches, examples) and the serving benchmark
(perfbench/) in Release with every function in its own section, links each
executable with --gc-sections, and compares the strong external functions
that libnvsoc.a defines (nm type T) with the functions each executable
keeps (nm types t, T, w, W). A function the linker dropped from every
executable is either uncalled or inlined into every caller; one kept only
by test_* binaries is reached only from tests. Prints two lists, demangled,
each entry with the file and line of its definition:

  * kept by no binary;
  * kept only by test_* binaries.

-g1 adds line tables for the file:line column; it does not change the
generated code. The flags go only on this script's cmake command lines:
the repository's default build is not touched.

Usage:
    python3 bench/reachability.py [--build-dir .reachability_build]

Exit status: 0 when both builds succeed (the report is not a gate), 1 when
a build fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys
from typing import Dict, List, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -g1",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# nm types of a function a linked executable keeps.
KEPT_TYPES = {"t", "T", "w", "W"}

# A strong external function: (mangled name, "file:line" or "?").
Defined = Tuple[str, str]


def build(source: pathlib.Path, out: pathlib.Path, jobs: str,
          target: List[str]) -> None:
    """Configure and build; the build log is shown only when a step fails."""
    for step in (["cmake", "-S", str(source), "-B", str(out), *FLAGS],
                 ["cmake", "--build", str(out), "-j", jobs, *target]):
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise subprocess.CalledProcessError(done.returncode, step)


def is_elf_executable(path: pathlib.Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(tree: pathlib.Path) -> List[pathlib.Path]:
    """Every linked executable in a build tree, CMake's probes excepted."""
    return sorted(p for p in tree.rglob("*")
                  if "CMakeFiles" not in p.parts and is_elf_executable(p))


def library_functions(archive: pathlib.Path) -> List[Defined]:
    """The T symbols libnvsoc.a defines, with their definition's location."""
    out = subprocess.run(["nm", "--defined-only", "-l", str(archive)],
                         check=True, capture_output=True, text=True).stdout
    found: Dict[str, str] = {}
    for line in out.splitlines():
        # "<addr> T <mangled>\t<file>:<line>" (the location is optional).
        fields = line.split(maxsplit=2)
        if len(fields) != 3 or fields[1] != "T":
            continue
        name, _, where = fields[2].partition("\t")
        found.setdefault(name, relative(where) if where else "?")
    return sorted(found.items())


def relative(location: str) -> str:
    try:
        return str(pathlib.Path(location).relative_to(REPO))
    except ValueError:
        return location


def kept_functions(binary: pathlib.Path) -> Set[str]:
    out = subprocess.run(["nm", "--defined-only", str(binary)],
                         check=True, capture_output=True, text=True).stdout
    kept: Set[str] = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in KEPT_TYPES:
            kept.add(fields[2])
    return kept


def demangle(names: List[str]) -> List[str]:
    if not names:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def print_list(title: str, entries: List[Defined]) -> None:
    print(f"\n{title} ({len(entries)} symbols):")
    where_by_name: Dict[str, str] = {}
    for (_, where), pretty in zip(entries,
                                  demangle([name for name, _ in entries])):
        # A constructor's complete- and base-object symbols demangle alike:
        # print the function once, at its location under src/.
        if not where_by_name.get(pretty, "").startswith("src/"):
            where_by_name[pretty] = where
    for pretty, where in sorted(where_by_name.items(),
                                key=lambda e: (e[1], e[0])):
        print(f"  {where}  {pretty}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Report the library functions no binary keeps.")
    parser.add_argument("--build-dir", default=".reachability_build",
                        help="where the two build trees go")
    args = parser.parse_args()
    jobs = str(os.cpu_count() or 1)

    root = pathlib.Path(args.build_dir).resolve()
    repo_tree, bench_tree = root / "nvsoc", root / "perfbench"
    try:
        build(REPO, repo_tree, jobs, [])
        build(REPO / "perfbench", bench_tree, jobs,
              ["--target", "perfbench_serving"])
    except subprocess.CalledProcessError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    defined = library_functions(repo_tree / "libnvsoc.a")
    binaries = executables(repo_tree) + executables(bench_tree)
    by_tests: Set[str] = set()
    by_others: Set[str] = set()
    for binary in binaries:
        kept = kept_functions(binary)
        (by_tests if binary.name.startswith("test_") else by_others).update(
            kept)

    kept_anywhere = by_tests | by_others
    unkept = [d for d in defined if d[0] not in kept_anywhere]
    tests_only = [d for d in defined
                  if d[0] in by_tests and d[0] not in by_others]
    print(f"libnvsoc.a defines {len(defined)} strong external functions; "
          f"{len(binaries)} executables linked with --gc-sections.")
    print_list("Kept by no binary", unkept)
    print_list("Kept only by test_* binaries", tests_only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
