#!/usr/bin/env python3
"""Run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <evolve|sfi_storage|sfi_gate>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench program as an optimised (Release) CMake build
under $CARGO_TARGET_DIR (default .bench_build); later runs only check
the build is current. Build output goes to stderr; the program's last
stdout line is the result JSON. Exits non-zero, printing no result,
when the library sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources, so numbers from
    different code are never mistaken for one another."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".cpp", ".hh",
                                                  ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to " + HERE.name)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    return out / "perfbench"


def main():
    binary = build()
    cmd = [str(binary)] + sys.argv[1:] + [
        "--commit", commit_id(),
        "--source-digest", source_digest(),
        "--out-dir", str(build_dir()),
    ]
    try:
        res = subprocess.run(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded 175 s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
