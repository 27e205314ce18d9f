#!/usr/bin/env python3
"""Link census: the ehsim functions that no program links.

    python3 tools/link_census.py [--build-dir DIR] [--allowlist FILE]

Builds every program of the repository at -O0 -ffunction-sections
-fdata-sections -Wl,--gc-sections: `ehsim` (tools/ehsim_cli.cpp), one
executable per bench/*.cpp and per examples/*.cpp, and perfbench's
ehsim_perfbench through its own CMake project. At -O0 nothing is inlined, so a
function some program calls keeps its own symbol, and --gc-sections drops
every function that no program reaches. The census prints, one per line, each
ehsim:: function that libehsim.a defines and no program binary contains
(`nm`, demangled by c++filt). Tests are not programs: a function only tests
call is printed.

The allowlist (tools/link_census_allowlist.txt) names the printed functions
that stay on purpose, one per line:

    <demangled symbol> -- <reason>: <user>[ (note)]

where <reason> is `reference`, `yardstick` or `fixture` (a test checks
another unit with it) or `compile` (the build needs it), and <user> names the
tests/<user>.cpp suite that uses it, or for `compile` the repository file
that needs it. Exit status:

    0  the census prints exactly the allowlist
    1  a printed function is not on the allowlist, a listed one is linked by
       a program or no longer exists, or a program is missing (the census
       needs all of them, so Google Benchmark must be installed)
    2  a build failed, or the allowlist is malformed

Stdlib only; needs cmake, a C++ compiler, nm and c++filt on PATH.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BUILD = ROOT / "build-census"
DEFAULT_ALLOWLIST = ROOT / "tools" / "link_census_allowlist.txt"

CXX_FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
REASONS = ("reference", "yardstick", "fixture", "compile")
FUNCTION_TYPES = set("TtWwi")
# A nested name whose first component is ehsim, with optional cv- and
# ref-qualifiers of a member function.
EHSIM_FUNCTION = re.compile(r"^_ZN[VKRO]*5ehsim")


def die(message: str) -> NoReturn:
    print(f"link_census: {message}", file=sys.stderr)
    sys.exit(2)


def configure_and_build(source: Path, build: Path, target: str | None) -> None:
    configure = [
        "cmake", "-S", str(source), "-B", str(build),
        # "None" adds no flags of its own; the census flags are the only ones.
        "-DCMAKE_BUILD_TYPE=None",
        f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
        f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
        # Tests are not programs; skip building them.
        "-DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON",
        # Warnings are the compiler legs' gate; the census only links.
        "-DEHSIM_WERROR=OFF",
    ]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = max(1, min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(build), "-j", str(jobs)]
    if target:
        command += ["--target", target]
    for step in (configure, command):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            die(f"`{' '.join(step)}` failed")


def program_names() -> list[str]:
    names = ["ehsim"]
    names += sorted(p.stem for p in (ROOT / "bench").glob("*.cpp"))
    names += sorted(f"example_{p.stem}" for p in (ROOT / "examples").glob("*.cpp"))
    return names


def defined_functions(path: Path) -> set[str]:
    """Demangled names of the ehsim:: functions that `path` defines.

    Selected on the mangled name, so a function counts by its own qualified
    name: a template's return type, a lambda inside an ehsim function
    (_ZZN5ehsim...) or a std:: template instantiated on an ehsim type does not
    make a symbol an ehsim:: function.
    """
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    mangled = sorted({parts[2] for parts in (line.split(" ", 2) for line in out.splitlines())
                      if len(parts) == 3 and parts[1] in FUNCTION_TYPES
                      and EHSIM_FUNCTION.match(parts[2])})
    demangled = subprocess.run(["c++filt"], input="\n".join(mangled), check=True,
                               capture_output=True, text=True).stdout
    return set(demangled.splitlines())


def read_allowlist(path: Path) -> set[str]:
    entries: set[str] = set()
    line_re = re.compile(r"^(?P<symbol>.+?) -- (?P<reason>\w+): (?P<user>[\w./]+)(?: \(.*\))?$")
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = line_re.match(line)
        where = f"{path.name}:{number}"
        if not match:
            die(f"{where}: expected `<symbol> -- <reason>: <user>`")
        if match["reason"] not in REASONS:
            die(f"{where}: reason must be one of {', '.join(REASONS)}")
        user = ROOT / match["user"] if match["reason"] == "compile" else \
            ROOT / "tests" / f"{match['user']}.cpp"
        if not user.is_file():
            die(f"{where}: no {user.relative_to(ROOT)}")
        if match["symbol"] in entries:
            die(f"{where}: duplicate entry")
        entries.add(match["symbol"])
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD)
    parser.add_argument("--allowlist", type=Path, default=DEFAULT_ALLOWLIST)
    args = parser.parse_args()

    allowlist = read_allowlist(args.allowlist)
    main_build = args.build_dir / "main"
    perf_build = args.build_dir / "perfbench"
    configure_and_build(ROOT, main_build, None)
    configure_and_build(ROOT / "perfbench", perf_build, "ehsim_perfbench")

    problems = []
    binaries = [main_build / name for name in program_names()]
    binaries.append(perf_build / "ehsim_perfbench")
    missing = [b.name for b in binaries if not b.exists()]
    if missing:
        problems.append(f"programs not built: {', '.join(missing)} "
                        "(is Google Benchmark installed? the census needs every program)")

    library = defined_functions(main_build / "libehsim.a")
    linked = set()
    for binary in binaries:
        if binary.exists():
            linked |= defined_functions(binary)
    unlinked = sorted(library - linked)
    for symbol in unlinked:
        print(symbol)

    problems += [f"not linked by any program and not on the allowlist: {s}"
                 for s in unlinked if s not in allowlist]
    problems += [f"allowlisted but linked by a program: {s}"
                 for s in sorted(allowlist) if s in linked]
    problems += [f"allowlisted but not defined by libehsim.a: {s}"
                 for s in sorted(allowlist) if s not in library]
    print(f"link_census: {len(unlinked)} unlinked ehsim:: functions, "
          f"{len(allowlist)} allowlisted, {len(binaries) - len(missing)} programs",
          file=sys.stderr)
    for problem in problems:
        print(f"link_census: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
