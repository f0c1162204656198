"""Run one command and print its wall time and resource use as JSON.

    python3 perfbench/launch.py PROGRAM ARG...

The benchmark starts every job through this small process instead of
directly: Linux carries a process's peak resident set across exec, so a job
forked from the benchmark itself would report the benchmark's own peak as
its peak_rss.  The usage comes from os.wait4, which includes every
descendant the job reaped (pool workers).  The job's stdout is discarded.
"""

import json
import os
import sys
import time


def main() -> None:
    argv = sys.argv[1:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }))


if __name__ == "__main__":
    main()
