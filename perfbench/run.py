#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

Run from the root of a source tree:

    python3 perfbench/run.py --workload rr_nat --seed 1 --seconds 20 --trace 0

It builds perfbench/perfbench.exe with dune inside the tree, runs it with
the same arguments and passes its output through; the last line of
standard output is the JSON result.  It exits non-zero, without printing
a result, when the tree holds no sources to build, when the build fails
or when the benchmark fails or runs too long.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, stdout):
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], timeout))


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s here: run from the root of a source tree" % need)
    env = dict(os.environ)
    # Keep every build product inside the tree: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    # Default GC settings, and the runtime-event ring that traced runs
    # read GC pauses from kept in the build directory.
    env.pop("OCAMLRUNPARAM", None)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join(root, "_build")
    code = run(["dune", "build", "--root", ".", "--display", "quiet",
                "./perfbench/perfbench.exe"],
               env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)
    sys.stdout.flush()
    code = run([EXE] + sys.argv[1:], env, RUN_TIMEOUT_S, stdout=None)
    if code != 0:
        fail("benchmark failed (exit %d)" % code)


if __name__ == "__main__":
    main()
