"""Run one command and print its wall time, CPU time, peak RSS and exit code.

    python3 bench/spawn.py TIMEOUT_S LOG -- PROGRAM ARG...

The benchmark starts every measured command through this small process.
On Linux a child's ``ru_maxrss`` starts from the peak RSS of the process
that forked it, so a command forked by the benchmark itself, which holds
numpy and the generated panel, would report the benchmark's memory as
its own. Forked from here, it starts from a bare interpreter's few MB,
well below any command's peak. The command's output goes to LOG; one
JSON line with the measurements goes to standard output. A command that
outlives TIMEOUT_S is killed.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, log, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, null, 0),
        (os.POSIX_SPAWN_DUP2, fd, 1),
        (os.POSIX_SPAWN_DUP2, fd, 2),
    ])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(max(1, int(float(timeout))))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    os.close(fd)
    os.close(null)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
