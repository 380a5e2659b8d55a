#!/usr/bin/env python3
"""Build and run the DSM client benchmark.

Run from the root of a checkout of the repository:

    python3 dsmbench/run.py --workload pram-read --seed 1 --seconds 20 --trace 0

The script builds dsmbench/dsmbench.exe with dune (build output goes to
standard error), then runs it with the same arguments.  The benchmark's
result is the last line of its standard output.  Exit codes: 0 on a
passing run, 1 when the correctness gate fails, 2 when the build fails or
the arguments are wrong, 3 when the run overstays its time limit.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "dsmbench", "dsmbench.exe")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write(
            "dsmbench: %s has no dune-project; run from a checkout of the "
            "repository\n" % ROOT)
        return False
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--cache=disabled", "--display=quiet", "./dsmbench/dsmbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("dsmbench: cannot build: %s\n" % e)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def main(argv):
    if not build():
        sys.stderr.write("dsmbench: build failed\n")
        return 2
    # The benchmark and the node processes it starts share one session,
    # so an overrun can stop all of them at once.
    proc = subprocess.Popen([EXE] + argv, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("dsmbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
