"""Start one command, wait for it, and report how it ended.

    python3 -S perfbench/launch.py REPORT_FD PROGRAM [ARG ...]

The command inherits stdin, stdout and stderr.  When it has exited, one
line ``<exit code> <wall seconds> <peak RSS KiB>`` goes to REPORT_FD.

This process exists to keep the peak RSS honest.  Linux starts a child's
``ru_maxrss`` at the peak RSS of the process that spawned it, so a child
spawned by the benchmark itself would report at least the benchmark's own
peak.  This launcher imports almost nothing, so its peak stays far below
any cliffstruct process.
"""

import os
import sys
import time


def main() -> None:
    report_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    line = f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n"
    os.write(report_fd, line.encode())


if __name__ == "__main__":
    main()
