#!/usr/bin/env python3
"""Build the benchmark binary from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload toric_circuit --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The binary is configured and built with
CMake into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is
set); later runs rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the binary's JSON result. Any extra flags
(--size tiny, --ci-target X) are passed through to the binary.

Exits 1 without printing a result when the library sources are missing or
the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    if not (ROOT / "src" / "sim" / "frame_sim.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", str(out), "-j", "4"]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "ftqc_perfbench"


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; never ask git
    # to search the directories above the checkout.
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def src_sha256():
    """Hash of the library sources the binary was built from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    binary = build()
    env = dict(os.environ, OMP_NUM_THREADS="1")
    cmd = [str(binary), *sys.argv[1:], "--git-sha", git_sha(),
           "--src-hash", src_sha256()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
