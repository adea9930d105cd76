"""Spawns the benchmark's child processes from a small process.

Linux records the spawning process's resident size as the starting peak
RSS of each child it execs, so children spawned by the benchmark itself,
which holds inputs and parsed outputs, would report the benchmark's size
instead of their own.  This process stays small: it reads one JSON
request per line on stdin, ``{"argv", "cwd", "env", "stdout", "stderr"}``,
runs the command and answers ``{"wall", "code", "rss_kb"}`` on stdout.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT = 120  # seconds before a hung child is killed


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                env=request["env"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
