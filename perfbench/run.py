#!/usr/bin/env python3
"""HolisticDB benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures (once) and builds (incrementally)
an optimized tree of the engine and the driver under .bench_build/perfbench,
apart from the repository's own build/, then runs the driver with the given
arguments. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. Any build error, oracle mismatch or timeout exits
non-zero.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
# A run is set-up, the timed window, the probe leg and the restart leg; the
# driver itself stops its window on time, so this only catches a hang.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}", 3)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", 3)
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compiler temporaries stay in the checkout
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                            stdout=sys.stderr, env=env)
    if result.returncode:
        fail("build failed", 3)
    return BUILD / "perfbench"


def main():
    binary = build()
    try:
        result = subprocess.run([str(binary)] + sys.argv[1:],
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode:
        fail(f"benchmark exited with status {result.returncode}", 1)


if __name__ == "__main__":
    main()
