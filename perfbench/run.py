#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload tune|stream|train --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness is a CMake package (perfbench/CMakeLists.txt) compiled in
Release into .bench_build/perfbench under the checkout root. Build output
goes to stderr; the harness prints its report on stdout and ends it with one
JSON result line. Exit codes: 0 all ops passed their checks, 1 an op failed,
2 bad arguments or missing sources, 3 a checked or sanitized build, other
non-zero values a failed build.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the library sources and build files the harness
    measures, so results from a checkout without git history still name
    the code they came from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in (ROOT / "perfbench").rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=sys.stderr, env=env,
                              check=False)
        if step.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed", 4)
    step = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                           "perfbench", "-j", jobs],
                          stdout=sys.stderr, env=env, check=False)
    if step.returncode != 0:
        fail("build failed", 4)
    return BUILD / "perfbench"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").exists() or \
            not (ROOT / "CMakeLists.txt").exists():
        fail(f"no repository sources next to {ROOT / 'perfbench'}")
    binary = build()
    args = [str(binary), *sys.argv[1:], "--work-dir", str(BUILD),
            "--git-sha", git_sha(), "--source-digest", source_digest(),
            "--benchmark-json", str(ROOT / "BENCHMARK.json")]
    sys.stdout.flush()
    return subprocess.run(args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
