"""Run one command to exit and print its wall time and rusage as JSON.

Usage: python3 perfbench/spawn.py TIMEOUT_S OUT_DIR program arg...

The command's stdout and stderr go to OUT_DIR/stdout.txt and stderr.txt.
This runs as a small process of its own, without numpy, because on Linux
a process's ru_maxrss keeps the high-water mark of the image it replaced
at exec: spawned straight from run.py, every command would report at least
run.py's own peak RSS.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def main(argv: list[str]) -> int:
    timeout, out_dir, command = float(argv[0]), argv[1], argv[2:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(out_dir, "stdout.txt"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(out_dir, "stderr.txt"), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        # The child is not reaped until wait4, so its pid cannot have been
        # reused when the timeout kills it.
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
