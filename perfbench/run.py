#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload apps|sparse --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # tests of the benchmark's arithmetic

The benchmark is built with CMake (Release) from perfbench/ and ../src into
<build root>/perfbench, where the build root is $CARGO_TARGET_DIR if set
(relative paths are taken from the checkout root) or .bench_build. Build
output goes to stderr; the binary's stdout is passed through, so the last
line of stdout is the result JSON. Traced runs also write a Chrome trace to
<build root>/traces/. Without the library sources the build fails and the
script exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def build_root() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def run_quiet(cmd, cwd=None) -> bool:
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target: str) -> Path:
    out = build_root() / "perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources missing under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(BENCH), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(out), "--target", target, "-j", jobs]):
        sys.exit("perfbench: build failed")
    return out / target


def git_sha() -> str:
    """HEAD of a git checkout at ROOT, read from .git without running git
    (which would search parent directories); 'none' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["apps", "sparse"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_tests")
        return subprocess.run([str(exe)], cwd=exe.parent).returncode
    if not args.workload:
        ap.error("--workload is required")

    exe = build("perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
