#!/usr/bin/env python3
"""Build Ripple's wall-clock benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bag|dag|serve|tenants> \
        --seed <n> --seconds <s> --trace <0|1> [--scale <f>]

The first call configures and builds perfbench/CMakeLists.txt (the
ripple library from src/ plus the ripple_perf program, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr. The program's output is
passed through unchanged: its last stdout line is the JSON result. With
--trace 1 the benchmark's spans are written to <build dir>/spans/.
The exit code is the program's (0 when every output check passed).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# ripple_perf stops well before this; the limit only guards a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "ripple", "core", "session.hpp")):
        fail("ripple sources (src/ripple) not found beside perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ripple_perf")


def main(argv):
    if "--workload" not in argv[:-1]:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    args = list(argv)
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    if trace != "0" and "--spans-out" not in args:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        workload = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else "1"
        args += ["--spans-out", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    try:
        result = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
