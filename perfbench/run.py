#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (perfbench/main.exe)
and the splice CLI from source with dune, then runs the workload. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
The exit code is 0 only when every output was correct. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("fuzz_sweep", "eval_grid", "gen_projects")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MAIN = "_build/default/perfbench/main.exe"
CLI = "_build/default/bin/splice_cli.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.access(os.path.join(prefix, "bin", "dune"), os.X_OK):
        return [os.path.join(prefix, "bin", "dune")]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found")


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    for need in ("dune-project", "lib", "bin", "examples/specs"):
        if not os.path.exists(need):
            fail("run from the repository root (no %s here)" % need)

    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune_command() + ["build", "--root", ".", "-j", "2", "./perfbench/main.exe", "./bin/splice_cli.exe"]
    if run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        fail("build failed")

    cmd = [MAIN, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--cli", CLI, "--out", "perfbench/out"]
    sys.stdout.flush()
    sys.exit(run_group(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
