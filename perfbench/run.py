#!/usr/bin/env python3
"""Builds camc and camc_perfbench from source, then runs the benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload cc_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Every argument is passed to camc_perfbench (see perfbench/README.md). The
build goes to $CARGO_TARGET_DIR if set, else .bench_build; its output goes
to stderr, so the last line of stdout is the benchmark's result line.
Exits nonzero without a result when the camc sources are not present.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Seconds the measured program may take once built; the build is not
# counted here.
RUN_TIMEOUT_S = 175


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        # Only this checkout's own repository, not one it happens to sit in.
        if git.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "tools" / "camc_serve.cpp"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "camc_perfbench",
                    "camc_serve"], stdout=sys.stderr, check=True)


def main():
    for needed in ("src/svc/service.hpp", "tools/camc_serve.cpp"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found; run from a camc checkout",
                  file=sys.stderr)
            return 2
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = pathlib.Path.cwd() / build_dir
    try:
        build(build_dir)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [str(build_dir / "camc_perfbench"), *sys.argv[1:],
               "--spec", str(ROOT / "BENCHMARK.json"),
               "--serve", str(build_dir / "camc_serve"),
               "--commit", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
