"""Run one command and report its own resource usage.

    python -I -S perfbench/launch.py REPORT_FD PROGRAM ARG...

Forks, executes PROGRAM with the inherited stdin, stdout and stderr, waits
for it, and writes "exit_code wall_s cpu_s maxrss_kib" to REPORT_FD.

Linux carries a process's peak RSS across exec, so a child started directly
by the benchmark runner would report at least the runner's own peak.  This
launcher imports almost nothing, so the command it forks starts from a
smaller peak than any `genocchi` process reaches, and the reported maximum is
the command's own.
"""

import os
import sys
import time


def main() -> None:
    report_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(report_fd, False)
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    report = f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}"
    os.write(report_fd, report.encode())
    os.close(report_fd)


if __name__ == "__main__":
    main()
