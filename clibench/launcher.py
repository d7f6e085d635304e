"""Start op processes from a small, long-lived process.

A child's `ru_maxrss` includes the memory of the process that forked it, so
children forked by the harness, which holds parsed reports of many MB, would
read high.  This process stays small.  It reads one JSON request a line on
stdin, {"cmd", "env", "cwd", "out", "timeout"}, runs the command to its exit
with stdout in `out` and stderr in `out`.err, and answers with one JSON line
{"exit", "seconds", "rss_mb"}; "exit" is null when the command was killed at
its timeout.  The environment variable CLIBENCH_LAUNCH_T passes the launch
time to the child.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def run(req):
    env = dict(req["env"], CLIBENCH_LAUNCH_T=repr(time.time()))
    with open(req["out"], "wb") as out, open(req["out"] + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=env, cwd=req["cwd"])
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], req["timeout"])
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode if ready else None,
        "seconds": seconds,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
