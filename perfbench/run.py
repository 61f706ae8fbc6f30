#!/usr/bin/env python3
"""Build and run the perfbench mission benchmark from a checkout's root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ with CMake into the build directory (the
CARGO_TARGET_DIR environment variable if set, else .bench_build), builds
the `perfbench` binary and the roborun_core library it links against, then
runs it with the same arguments. Build output goes to stderr; the
benchmark's report and its final JSON line go to stdout. The exit code is
the benchmark's, or nonzero when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no roborun sources next to perfbench/ - nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    scratch = os.path.join(target, "perfbench_tmp")
    result = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch])
    shutil.rmtree(scratch, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
